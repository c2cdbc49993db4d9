package container

import (
	"fmt"
	"math/bits"
	"unsafe"
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
	if n <= 16 {
		a, b := shortWords(s)
		return hashWords(a, b, n)
	}
	seed := uint64(wyp0)
	for p := s; len(p) > 16; p = p[16:] {
		seed = wymix(le64(p)^wyp1, le64(p[8:])^seed)
	}
	return wymix(le64(s[n-16:])^wyp1, le64(s[n-8:])^seed^uint64(n))
}

// shortWords returns the two words HashString loads from a key of at most
// 16 bytes. With the key's length they are the key itself: the loads
// together cover every byte, so two keys of one length are equal exactly
// when their words are.
func shortWords(s string) (a, b uint64) {
	n := len(s)
	switch {
	case n >= 8:
		return le64(s), le64(s[n-8:])
	case n >= 4:
		return le32(s), le32(s[n-4:])
	case n > 0:
		return uint64(s[0])<<16 | uint64(s[n>>1])<<8 | uint64(s[n-1]), 0
	}
	return 0, 0
}

// hashWords is HashString of a key of n ≤ 16 bytes whose words are a, b.
func hashWords(a, b uint64, n int) uint64 { return wymix(a^wyp1, b^wyp0^uint64(n)) }

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
//
// A string key is compared inline. Its slot (strSlot) holds, in 32 bytes
// beside the accumulator, the key's length and two words of its bytes
// (shortWords), which together are the key itself for a key of up to 16
// bytes. A probe then reads one slot and compares a byte and two words
// where it would compare strings — a call into the runtime and a load from
// wherever the key's bytes lie — and reads a stored key only when both are
// longer than 16 bytes. The keys themselves are kept apart, for Iterate.
type FixedHash[K comparable, V any] struct {
	hash    Hasher[K]
	keys    []K
	vals    []V          // non-string keys
	state   []uint8      // non-string keys: 0 empty, 1 occupied
	slots   []strSlot[V] // string keys: each slot's identity and accumulator
	mask    uint64
	shift   uint // 64 − log2(slots): the home slot is hash·fib >> shift
	maxKeys int
	_       fence
	n       int
	_       fence
}

// strSlot is one slot of a string-keyed FixedHash: the key's tag — 0 for
// an empty slot, else its length plus one, or longKey — its words (strIdent)
// and its accumulator.
type strSlot[V any] struct {
	w   [2]uint64
	v   V
	tag uint8
}

// longKey is the tag of a string key of more than 16 bytes, whose slot
// words are its hash and its length: equal words only nominate the slot,
// and the stored key confirms it.
const longKey = 0xff

// strIdent returns a string key's slot identity: its tag and its words,
// which for a long key are hk, its hash, and its length.
func strIdent(s string, hk uint64) (uint8, [2]uint64) {
	if len(s) > 16 {
		return longKey, [2]uint64{hk, uint64(len(s))}
	}
	a, b := shortWords(s)
	return uint8(len(s) + 1), [2]uint64{a, b}
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
	h := &FixedHash[K, V]{
		hash:    hash,
		keys:    make([]K, cap),
		mask:    cap - 1,
		shift:   uint(64 - bits.TrailingZeros64(cap)),
		maxKeys: maxKeys,
	}
	if _, ok := any(*new(K)).(string); ok {
		h.slots = isolated[strSlot[V]](int(cap), int(cap))
	} else {
		h.vals = isolated[V](int(cap), int(cap))
		h.state = isolated[uint8](int(cap), int(cap))
	}
	return h
}

// home returns k's home slot, where its probe sequence starts.
func (h *FixedHash[K, V]) home(k K) uint64 { return h.hash(k) * fib >> h.shift }

// asString is *k as the string it is; only a table with slots calls it.
func asString[K comparable](k *K) string { return *(*string)(unsafe.Pointer(k)) }

// find probes linearly from k's home slot: it returns k's slot and true,
// or the empty slot where k belongs and false.
func (h *FixedHash[K, V]) find(k K) (uint64, bool) {
	if h.slots != nil {
		return h.findString(k)
	}
	for i := h.home(k); ; i = (i + 1) & h.mask {
		if h.state[i] == 0 {
			return i, false
		}
		if h.keys[i] == k {
			return i, true
		}
	}
}

// findString is find for a string key, comparing slot identities.
func (h *FixedHash[K, V]) findString(k K) (uint64, bool) {
	hk := h.hash(k)
	tag, w := strIdent(asString(&k), hk)
	for i := hk * fib >> h.shift; ; i = (i + 1) & h.mask {
		switch s := &h.slots[i]; s.tag {
		case 0:
			return i, false
		case tag:
			if s.w == w && (tag != longKey || h.keys[i] == k) {
				return i, true
			}
		}
	}
}

// val returns slot i's accumulator.
func (h *FixedHash[K, V]) val(i uint64) *V {
	if h.slots != nil {
		return &h.slots[i].v
	}
	return &h.vals[i]
}

// occupied reports whether slot i holds a key.
func (h *FixedHash[K, V]) occupied(i int) bool {
	if h.slots != nil {
		return h.slots[i].tag != 0
	}
	return h.state[i] != 0
}

// put gives k, absent, the empty slot i holding v. A key beyond the
// declared capacity panics, because the caller declared the bound.
func (h *FixedHash[K, V]) put(i uint64, k K, v V) {
	if h.n >= h.maxKeys {
		panic(fmt.Sprintf("container: FixedHash overflow: %d distinct keys exceed declared capacity %d", h.n+1, h.maxKeys))
	}
	h.keys[i] = k
	if h.slots != nil {
		s, hk := asString(&k), uint64(0)
		if len(s) > 16 {
			hk = h.hash(k)
		}
		h.slots[i].tag, h.slots[i].w = strIdent(s, hk)
		h.slots[i].v = v
	} else {
		h.vals[i], h.state[i] = v, 1
	}
	h.n++
}

// Update folds v into the slot for k, inserting if absent.
func (h *FixedHash[K, V]) Update(k K, v V, combine Combine[V]) {
	if i, ok := h.find(k); ok {
		acc := h.val(i)
		*acc = combine(*acc, v)
	} else {
		h.put(i, k, v)
	}
}

// Fold returns the per-pair fold into h: Update's probe loop, written out
// over the backing arrays it captures, which never change, counting each
// pair in *n. Under Sum the fold adds inline, and with HashInt or
// HashUint64 it also probes from the key itself, without the hasher's call;
// a string table's fold under Sum compares slot identities, and with
// HashString hashes from the words it compares.
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
	if h.slots != nil {
		return func(k K, v V) {
			*n++
			h.Update(k, v, combine)
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
	switch h := any(h).(type) {
	case *FixedHash[int, V]:
		if is(h.hash, identities) {
			return any(addIntHash(h, n)).(func(K, V))
		}
	case *FixedHash[uint64, V]:
		if is(h.hash, identities) {
			return any(addIntHash(h, n)).(func(K, V))
		}
	case *FixedHash[string, V]:
		return any(addStringHash(h, n)).(func(K, V))
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

// addStringHash is addFixedHash's fold for string keys: findString's probe
// with an inline add. A key of up to 16 bytes is loaded once, for its
// words; under HashString its hash is mixed from them.
func addStringHash[V Number](h *FixedHash[string, V], n *uint64) func(string, V) {
	hash, keys, slots, mask, shift := h.hash, h.keys, h.slots, h.mask, h.shift
	wy := is(hash, wyhash)
	return func(k string, v V) {
		*n++
		var (
			hk  uint64
			tag uint8
			w   [2]uint64
		)
		if len(k) <= 16 {
			w[0], w[1] = shortWords(k)
			tag = uint8(len(k) + 1)
			if wy {
				hk = hashWords(w[0], w[1], len(k))
			} else {
				hk = hash(k)
			}
		} else {
			hk = hash(k)
			tag, w = longKey, [2]uint64{hk, uint64(len(k))}
		}
		for i := hk * fib >> shift; ; i = (i + 1) & mask {
			switch s := &slots[i]; s.tag {
			case 0:
				h.put(i, k, v)
				return
			case tag:
				if s.w == w && (tag != longKey || keys[i] == k) {
					s.v += v
					return
				}
			}
		}
	}
}

// UpdateBatch folds each pair of kvs into its slot, as Update does; the
// batch costs one interface dispatch.
func (h *FixedHash[K, V]) UpdateBatch(kvs []KV[K, V], combine Combine[V]) {
	for _, p := range kvs {
		if i, ok := h.find(p.K); ok {
			acc := h.val(i)
			*acc = combine(*acc, p.V)
		} else {
			h.put(i, p.K, p.V)
		}
	}
}

// Get returns the accumulator for k.
func (h *FixedHash[K, V]) Get(k K) (V, bool) {
	if i, ok := h.find(k); ok {
		return *h.val(i), true
	}
	var zero V
	return zero, false
}

// Len returns the number of distinct keys stored.
func (h *FixedHash[K, V]) Len() int { return h.n }

// Iterate visits pairs in table order.
func (h *FixedHash[K, V]) Iterate(f func(K, V) bool) {
	for i := range h.keys {
		if h.occupied(i) && !f(h.keys[i], *h.val(uint64(i))) {
			return
		}
	}
}

// Reset empties the table, retaining the backing arrays.
func (h *FixedHash[K, V]) Reset() {
	clear(h.keys)
	clear(h.vals)
	clear(h.state)
	clear(h.slots)
	h.n = 0
}

// Kind reports KindFixedHash.
func (h *FixedHash[K, V]) Kind() Kind { return KindFixedHash }

var _ Container[string, int] = (*FixedHash[string, int])(nil)
