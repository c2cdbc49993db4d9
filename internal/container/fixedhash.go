package container

import (
	"fmt"
	"math/bits"
)

// Hasher maps a key to a 64-bit hash. FixedHash takes the hash function
// explicitly so any comparable key type works without reflection. The table
// spreads the hash over its slots itself, so a hasher need not mix: it only
// has to tell keys apart.
type Hasher[K comparable] func(K) uint64

// HashInt returns k, as libstdc++'s std::hash<int> does: FixedHash spreads
// the key over its slots, so dense or strided int keys need no mixing.
func HashInt(k int) uint64 { return uint64(k) }

// HashUint64 returns k, as HashInt does.
func HashUint64(k uint64) uint64 { return k }

// HashString hashes a string a word at a time, in the shape of wyhash's
// short-input path (github.com/wangyi-fudan/wyhash): a key of 4-16 bytes
// is two overlapping little-endian loads of 4 or 8 bytes, one of 1-3 bytes
// its first, middle and last bytes, and a longer one folds 16 bytes per
// step before its last 16 take the short path; one 64×64→128-bit multiply
// with the length finishes the hash. No key costs a byte loop. It is a
// table hash, not a format: nothing may store or compare its values across
// builds.
func HashString(s string) uint64 {
	n := len(s)
	seed := uint64(wyp0)
	var a, b uint64
	switch {
	case n > 16:
		for p := s; len(p) > 16; p = p[16:] {
			seed = wymix(le64(p)^wyp1, le64(p[8:])^seed)
		}
		a, b = le64(s[n-16:]), le64(s[n-8:])
	case n >= 8:
		a, b = le64(s), le64(s[n-8:])
	case n >= 4:
		a, b = le32(s), le32(s[n-4:])
	case n > 0:
		a = uint64(s[0])<<16 | uint64(s[n>>1])<<8 | uint64(s[n-1])
	}
	return wymix(a^wyp1, b^seed^uint64(n))
}

// wyp0 and wyp1 are wyhash's first two default secrets.
const (
	wyp0 = 0xa0761d6478bd642f
	wyp1 = 0xe7037ed1a0b428db
)

// wymix folds the 128-bit product of a and b into 64 bits.
func wymix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// le64 loads s's first 8 bytes little-endian; the compiler makes it one load.
func le64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// le32 loads s's first 4 bytes little-endian.
func le32(s string) uint64 {
	_ = s[3]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24
}

// fib is 2^64 over the golden ratio, Knuth's multiplier for Fibonacci
// hashing: a key's home slot is the top bits of hash·fib, which spread any
// arithmetic progression of hashes evenly over the table.
const fib = 0x9e3779b97f4a7c15

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
	shift   uint // 64 − log2(slots): the home slot is hash·fib >> shift
	maxKeys int
	_       fence
	n       int
	_       fence
}

// NewFixedHash returns a fixed-capacity table able to hold maxKeys
// distinct keys. The backing store is the next power of two at least
// twice maxKeys, so the load factor at the declared size stays at or
// below 1/2: linear probing costs about (1+1/(1-a))/2 probes per hit at
// load a on random slots — 1.5 at 1/2 against 2.5 at the 3/4 that HG's 768
// keys reached under the previous 7/8 rule (EXPERIMENTS.md, "Admission
// before materialisation"). Fibonacci slots do better than random on the
// suite's int keys: every key set lands on its home slot, one probe per
// update (EXPERIMENTS.md, "A folded pair costs one call").
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
		shift:   uint(64 - bits.TrailingZeros64(cap)),
		maxKeys: maxKeys,
	}
}

// home returns k's home slot, where its probe sequence starts.
func (h *FixedHash[K, V]) home(k K) uint64 { return h.hash(k) * fib >> h.shift }

// find probes linearly from k's home slot: it returns k's slot and true,
// or the empty slot where k belongs and false.
func (h *FixedHash[K, V]) find(k K) (uint64, bool) {
	for i := h.home(k); ; i = (i + 1) & h.mask {
		if h.state[i] == 0 {
			return i, false
		}
		if h.keys[i] == k {
			return i, true
		}
	}
}

// put gives k, absent, the empty slot i holding v. A key beyond the
// declared capacity panics, because the caller declared the bound.
func (h *FixedHash[K, V]) put(i uint64, k K, v V) {
	if h.n >= h.maxKeys {
		panic(fmt.Sprintf("container: FixedHash overflow: %d distinct keys exceed declared capacity %d", h.n+1, h.maxKeys))
	}
	h.keys[i], h.vals[i], h.state[i] = k, v, 1
	h.n++
}

// Update folds v into the slot for k, inserting if absent.
func (h *FixedHash[K, V]) Update(k K, v V, combine Combine[V]) {
	if i, ok := h.find(k); ok {
		h.vals[i] = combine(h.vals[i], v)
	} else {
		h.put(i, k, v)
	}
}

// Fold returns the per-pair fold into h: Update's probe loop, written out
// over the backing arrays it captures, which never change, counting each
// pair in *n. Under Sum the fold adds inline, and with HashInt or
// HashUint64 it also probes from the key itself, without the hasher's call.
func (h *FixedHash[K, V]) Fold(combine Combine[V], n *uint64) func(K, V) {
	if is(combine, sums) {
		switch h := any(h).(type) {
		case *FixedHash[K, int]:
			return any(addFixedHash(h, n)).(func(K, V))
		case *FixedHash[K, int64]:
			return any(addFixedHash(h, n)).(func(K, V))
		case *FixedHash[K, uint64]:
			return any(addFixedHash(h, n)).(func(K, V))
		case *FixedHash[K, float64]:
			return any(addFixedHash(h, n)).(func(K, V))
		}
	}
	hash, keys, vals, state, mask, shift := h.hash, h.keys, h.vals, h.state, h.mask, h.shift
	return func(k K, v V) {
		*n++
		for i := hash(k) * fib >> shift; ; i = (i + 1) & mask {
			if state[i] == 0 {
				h.put(i, k, v)
				return
			}
			if keys[i] == k {
				vals[i] = combine(vals[i], v)
				return
			}
		}
	}
}

// addFixedHash is h's fold under Sum: Fold's body with combine's call made
// an add, and with the hasher's call made the key itself when the hasher
// is an identity.
func addFixedHash[K comparable, V Number](h *FixedHash[K, V], n *uint64) func(K, V) {
	if is(h.hash, identities) {
		switch h := any(h).(type) {
		case *FixedHash[int, V]:
			return any(addIntHash(h, n)).(func(K, V))
		case *FixedHash[uint64, V]:
			return any(addIntHash(h, n)).(func(K, V))
		}
	}
	hash, keys, vals, state, mask, shift := h.hash, h.keys, h.vals, h.state, h.mask, h.shift
	return func(k K, v V) {
		*n++
		for i := hash(k) * fib >> shift; ; i = (i + 1) & mask {
			if state[i] == 0 {
				h.put(i, k, v)
				return
			}
			if keys[i] == k {
				vals[i] += v
				return
			}
		}
	}
}

// addIntHash is addFixedHash's fold for an identity hasher: the home slot
// is uint64(k)·fib >> shift, as the hasher's call would give.
func addIntHash[K int | uint64, V Number](h *FixedHash[K, V], n *uint64) func(K, V) {
	keys, vals, state, mask, shift := h.keys, h.vals, h.state, h.mask, h.shift
	return func(k K, v V) {
		*n++
		for i := uint64(k) * fib >> shift; ; i = (i + 1) & mask {
			if state[i] == 0 {
				h.put(i, k, v)
				return
			}
			if keys[i] == k {
				vals[i] += v
				return
			}
		}
	}
}

// UpdateBatch folds each pair of kvs into its slot, as Update does; the
// batch costs one interface dispatch.
func (h *FixedHash[K, V]) UpdateBatch(kvs []KV[K, V], combine Combine[V]) {
	for _, p := range kvs {
		if i, ok := h.find(p.K); ok {
			h.vals[i] = combine(h.vals[i], p.V)
		} else {
			h.put(i, p.K, p.V)
		}
	}
}

// Get returns the accumulator for k.
func (h *FixedHash[K, V]) Get(k K) (V, bool) {
	if i, ok := h.find(k); ok {
		return h.vals[i], true
	}
	var zero V
	return zero, false
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
}

// Kind reports KindFixedHash.
func (h *FixedHash[K, V]) Kind() Kind { return KindFixedHash }

var _ Container[string, int] = (*FixedHash[string, int])(nil)
