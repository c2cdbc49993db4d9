package container

import "fmt"

// Hasher maps a key to a 64-bit hash. FixedHash takes the hash function
// explicitly so any comparable key type works without reflection.
type Hasher[K comparable] func(K) uint64

// HashInt hashes an int with a 64-bit finalizer (splitmix64), giving good
// dispersion even for the small consecutive key ranges the benchmark apps
// emit.
func HashInt(k int) uint64 { return mix64(uint64(k)) }

// HashUint64 hashes a uint64 with the same finalizer.
func HashUint64(k uint64) uint64 { return mix64(k) }

// HashString hashes a string with FNV-1a.
func HashString(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// FixedHash is an open-addressing (linear probing) hash container with a
// capacity fixed at construction, matching the "fixed-size hash table"
// configuration of Figs. 8b/9b. Relative to FixedArray it adds the hash
// calculation and a non-regular access pattern — the memory intensity the
// paper deliberately injects — while avoiding dynamic allocation on the
// hot path.
//
// Inserting more distinct keys than the declared capacity panics, because
// the caller declared the bound. Use NewFixedHash with the expected
// distinct-key count; it sizes the backing arrays so that a table filled
// to that count is at most half full.
type FixedHash[K comparable, V any] struct {
	hash    Hasher[K]
	keys    []K
	vals    []V
	state   []uint8 // 0 empty, 1 occupied
	mask    uint64
	maxKeys int
	_       fence
	n       int
	// Probes counts total probe steps, a proxy for the extra memory
	// traffic this container generates; the perf model reads it.
	// UpdateBatch adds a batch's steps in one store.
	Probes uint64
	_      fence
}

// NewFixedHash returns a fixed-capacity table able to hold maxKeys
// distinct keys. The backing store is the next power of two at least
// twice maxKeys, so the load factor at the declared size stays at or
// below 1/2: linear probing costs about (1+1/(1-a))/2 probes per hit at
// load a — 1.5 at 1/2 against 2.5 at the 3/4 that HG's 768 keys reached
// under the previous 7/8 rule (EXPERIMENTS.md, "Admission before
// materialisation").
func NewFixedHash[K comparable, V any](maxKeys int, hash Hasher[K]) *FixedHash[K, V] {
	if maxKeys <= 0 {
		panic("container: FixedHash maxKeys must be positive")
	}
	if hash == nil {
		panic("container: FixedHash requires a hash function")
	}
	cap := uint64(8)
	for cap < 2*uint64(maxKeys) {
		cap <<= 1
	}
	return &FixedHash[K, V]{
		hash:    hash,
		keys:    make([]K, cap),
		vals:    isolated[V](int(cap), int(cap)),
		state:   isolated[uint8](int(cap), int(cap)),
		mask:    cap - 1,
		maxKeys: maxKeys,
	}
}

// Update folds v into the slot for k, inserting if absent.
func (h *FixedHash[K, V]) Update(k K, v V, combine Combine[V]) {
	i := h.hash(k) & h.mask
	for {
		h.Probes++
		if h.state[i] == 0 {
			if h.n >= h.maxKeys {
				panic(fmt.Sprintf("container: FixedHash overflow: %d distinct keys exceed declared capacity %d", h.n+1, h.maxKeys))
			}
			h.keys[i] = k
			h.vals[i] = v
			h.state[i] = 1
			h.n++
			return
		}
		if h.keys[i] == k {
			h.vals[i] = combine(h.vals[i], v)
			return
		}
		i = (i + 1) & h.mask
	}
}

// UpdateBatch folds each pair of kvs into its slot. The probe loop is the
// same as Update's; batching amortizes the interface dispatch and keeps
// consecutive probes of one batch temporally adjacent in the table. Probe
// steps are counted in a local and stored once: a store per step into the
// struct is a cross-core write per pair to whoever reads the line next
// door.
func (h *FixedHash[K, V]) UpdateBatch(kvs []KV[K, V], combine Combine[V]) {
	probes := uint64(0)
	for _, p := range kvs {
		i := h.hash(p.K) & h.mask
		for {
			probes++
			if h.state[i] == 0 {
				if h.n >= h.maxKeys {
					h.Probes += probes
					panic(fmt.Sprintf("container: FixedHash overflow: %d distinct keys exceed declared capacity %d", h.n+1, h.maxKeys))
				}
				h.keys[i] = p.K
				h.vals[i] = p.V
				h.state[i] = 1
				h.n++
				break
			}
			if h.keys[i] == p.K {
				h.vals[i] = combine(h.vals[i], p.V)
				break
			}
			i = (i + 1) & h.mask
		}
	}
	h.Probes += probes
}

// Get returns the accumulator for k.
func (h *FixedHash[K, V]) Get(k K) (V, bool) {
	var zero V
	i := h.hash(k) & h.mask
	for {
		if h.state[i] == 0 {
			return zero, false
		}
		if h.keys[i] == k {
			return h.vals[i], true
		}
		i = (i + 1) & h.mask
	}
}

// Len returns the number of distinct keys stored.
func (h *FixedHash[K, V]) Len() int { return h.n }

// Iterate visits pairs in table order.
func (h *FixedHash[K, V]) Iterate(f func(K, V) bool) {
	for i, s := range h.state {
		if s == 1 && !f(h.keys[i], h.vals[i]) {
			return
		}
	}
}

// Reset empties the table, retaining the backing arrays.
func (h *FixedHash[K, V]) Reset() {
	var zk K
	var zv V
	for i := range h.state {
		if h.state[i] == 1 {
			h.keys[i] = zk
			h.vals[i] = zv
			h.state[i] = 0
		}
	}
	h.n = 0
	h.Probes = 0
}

// Kind reports KindFixedHash.
func (h *FixedHash[K, V]) Kind() Kind { return KindFixedHash }

var _ Container[string, int] = (*FixedHash[string, int])(nil)
