package container

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"unsafe"
)

// fib is 2^64 over the golden ratio, Knuth's multiplier for Fibonacci
// hashing: a key's home slot is the top bits of hash·fib, which spread any
// arithmetic progression of hashes evenly over the table.
const fib = 0x9e3779b97f4a7c15

// Hash is an open-addressing (linear probing) hash container, the table
// behind both of the paper's hash containers:
//
//   - KindHash (NewHash, NewHashSized) is the regular growing table,
//     Phoenix++'s default Word Count container and the "regular hash
//     table" used for MM and PCA in the memory-intensive configuration. It
//     doubles whenever it is half full, reallocating and rehashing: the
//     dynamic allocation cost the paper calls out.
//   - KindFixedHash (NewFixedHash) is the "fixed-size hash table" of
//     Figs. 8b/9b, its capacity fixed at construction. Relative to
//     FixedArray it adds the hash calculation and a non-regular access
//     pattern — the memory intensity the paper deliberately injects —
//     while avoiding dynamic allocation on the hot path. Inserting more
//     distinct keys than it declared panics, because the caller declared
//     the bound.
//
// Both keep a table at most half full, and each key in one slot: a
// non-string key's slot holds the key, its accumulator and its presence
// mark together, so a probe reads one slot. A string key is compared
// inline. Its slot (strSlot) holds, in 32 bytes beside the accumulator,
// the key's length and two words of its bytes (shortWords), which
// together are the key itself for a key of up to 16 bytes. A probe then
// compares a byte and two words where it would compare strings — a call
// into the runtime and a load from wherever the key's bytes lie — and
// reads a stored key only when both are longer than 16 bytes. The string
// keys themselves are kept beside their slots, for Iterate.
//
// A table hashing strings with HashString hashes them under a seed it
// draws when it is built, so keys that pile onto one slot of one table
// spread over another's.
type Hash[K comparable, V any] struct {
	hash  Hasher[K]
	seed  seed         // the string hash's keys, when wy
	wy    bool         // K is string and hash is HashString: hashed under seed, from the words a probe compares
	slots []slot[K, V] // non-string keys
	strs  []strSlot[V] // string keys: each slot's identity and accumulator
	keys  []K          // string keys, beside their slots
	mask  uint64
	shift uint // 64 − log2(slots): the home slot is hash·fib >> shift
	limit int  // the keys the table holds before it grows, or if fixed panics
	kind  Kind
	_     fence
	n     int
	_     fence
}

// slot is one slot of a table of non-string keys: the key, its
// accumulator, and whether the slot holds one.
type slot[K comparable, V any] struct {
	k    K
	v    V
	full bool
}

// strSlot is one slot of a string-keyed table: the key's tag — 0 for an
// empty slot, else its length plus one, or longKey — its words a and b,
// and its accumulator.
type strSlot[V any] struct {
	a, b uint64
	v    V
	tag  uint8
}

// longKey is the tag of a string key of more than 16 bytes, whose slot
// words are its hash and its length: equal words only nominate the slot,
// and the stored key confirms it.
const longKey = 0xff

// NewHash returns an empty growing table with room for 64 keys.
func NewHash[K comparable, V any]() *Hash[K, V] { return NewHashSized[K, V](64) }

// NewHashSized returns an empty growing table with room for n keys before
// its first growth. Its hasher is hasherFor's for K.
func NewHashSized[K comparable, V any](n int) *Hash[K, V] {
	return newHash[K, V](KindHash, max(n, 1), hasherFor[K](), rand.Uint64())
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
func NewFixedHash[K comparable, V any](maxKeys int, hash Hasher[K]) *Hash[K, V] {
	if maxKeys <= 0 {
		panic("container: FixedHash maxKeys must be positive")
	}
	if hash == nil {
		panic("container: FixedHash requires a hash function")
	}
	return newHash[K, V](KindFixedHash, maxKeys, hash, rand.Uint64())
}

// newHash builds a table of kind for keys keys under hash, its string
// hash seeded from r (tests pin r).
func newHash[K comparable, V any](kind Kind, keys int, hash Hasher[K], r uint64) *Hash[K, V] {
	h := &Hash[K, V]{hash: hash, seed: seedOf(r), wy: is(hash, wyhash), kind: kind}
	slots := uint64(8)
	for slots < 2*uint64(keys) {
		slots <<= 1
	}
	h.alloc(slots)
	if kind == KindFixedHash {
		h.limit = keys
	}
	return h
}

// alloc gives h empty slabs of slots slots, a power of two, and the
// growing table's limit for them.
func (h *Hash[K, V]) alloc(slots uint64) {
	h.mask, h.shift, h.limit = slots-1, uint(64-bits.TrailingZeros64(slots)), int(slots/2)
	if _, ok := any(*new(K)).(string); ok {
		h.strs = isolated[strSlot[V]](int(slots), int(slots))
		h.keys = isolated[K](int(slots), int(slots))
	} else {
		h.slots = isolated[slot[K, V]](int(slots), int(slots))
	}
}

// home returns the home slot of a key hashing to hk in a table of shift
// (h.shift): the top bits of hk·fib. A shift is at most 61; masking it
// tells the compiler so, and spares the probe the check for a shift of 64
// or more. It is a function, not a method, because go1.24 does not inline
// a generic method into a generic caller, and the folds are generic.
func home(hk uint64, shift uint) uint64 { return hk * fib >> (shift & 63) }

// asString is *k as the string it is; only a table with strs calls it.
func asString[K comparable](k *K) string { return *(*string)(unsafe.Pointer(k)) }

// hashOf returns k's hash: seeded if h is wy, else its hasher's.
func (h *Hash[K, V]) hashOf(k K) uint64 {
	if h.wy {
		return hashString(asString(&k), h.seed)
	}
	return h.hash(k)
}

// ident returns a string key's hash and slot identity: its tag and its
// words, which for a long key are its hash and its length.
func (h *Hash[K, V]) ident(k K) (hk uint64, tag uint8, a, b uint64) {
	s := asString(&k)
	if len(s) > 16 {
		hk = h.hashOf(k)
		return hk, longKey, hk, uint64(len(s))
	}
	a, b = shortWords(s)
	if h.wy {
		hk = hashWords(a, b, len(s), h.seed)
	} else {
		hk = h.hash(k)
	}
	return hk, uint8(len(s) + 1), a, b
}

// find probes linearly from k's home slot: it returns k's slot and true,
// or the empty slot where k belongs and false.
func (h *Hash[K, V]) find(k K) (uint64, bool) {
	if h.strs != nil {
		hk, tag, a, b := h.ident(k)
		for i := home(hk, h.shift); ; i = (i + 1) & h.mask {
			switch s := &h.strs[i]; s.tag {
			case 0:
				return i, false
			case tag:
				if s.a == a && s.b == b && (tag != longKey || h.keys[i] == k) {
					return i, true
				}
			}
		}
	}
	for i := home(h.hash(k), h.shift); ; i = (i + 1) & h.mask {
		switch s := &h.slots[i]; {
		case !s.full:
			return i, false
		case s.k == k:
			return i, true
		}
	}
}

// val returns slot i's accumulator.
func (h *Hash[K, V]) val(i uint64) *V {
	if h.strs != nil {
		return &h.strs[i].v
	}
	return &h.slots[i].v
}

// put gives k, absent, the empty slot i holding v. At its limit a growing
// table first doubles, and k's slot is found again; a fixed table panics,
// because the caller declared the bound.
func (h *Hash[K, V]) put(i uint64, k K, v V) {
	if h.n >= h.limit {
		if h.kind == KindFixedHash {
			panic(fmt.Sprintf("container: FixedHash overflow: %d distinct keys exceed declared capacity %d", h.n+1, h.limit))
		}
		h.grow()
		i, _ = h.find(k)
	}
	if h.strs != nil {
		_, tag, a, b := h.ident(k)
		h.strs[i] = strSlot[V]{a, b, v, tag}
		h.keys[i] = k
	} else {
		h.slots[i] = slot[K, V]{k, v, true}
	}
	h.n++
}

// grow doubles h's slabs and moves every key to its slot in the new ones.
// A short string key's hash is mixed again from its slot's words, and a
// long key's is its slot's first word, so under HashString no key's bytes
// are read.
func (h *Hash[K, V]) grow() {
	slots, strs, keys := h.slots, h.strs, h.keys
	h.alloc(2 * (h.mask + 1))
	for _, s := range slots {
		if s.full {
			i := home(h.hash(s.k), h.shift)
			for h.slots[i].full {
				i = (i + 1) & h.mask
			}
			h.slots[i] = s
		}
	}
	for j, s := range strs {
		var hk uint64
		switch {
		case s.tag == 0:
			continue
		case s.tag == longKey:
			hk = s.a
		case h.wy:
			hk = hashWords(s.a, s.b, int(s.tag-1), h.seed)
		default:
			hk = h.hash(keys[j])
		}
		i := home(hk, h.shift)
		for h.strs[i].tag != 0 {
			i = (i + 1) & h.mask
		}
		h.strs[i], h.keys[i] = s, keys[j]
	}
}

// Update folds v into the slot for k, inserting if absent.
func (h *Hash[K, V]) Update(k K, v V, combine Combine[V]) {
	if i, ok := h.find(k); ok {
		acc := h.val(i)
		*acc = combine(*acc, v)
	} else {
		h.put(i, k, v)
	}
}

// Fold returns the per-pair fold into h: Update, counting each pair in *n.
// Under Sum the fold adds inline; with HashInt or HashUint64 it also
// probes from the key itself, without the hasher's call, and with
// HashString it hashes a short key from the words it compares. A fold
// reads the slabs through h, because growth replaces them.
func (h *Hash[K, V]) Fold(combine Combine[V], n *uint64) func(K, V) {
	if is(combine, sums) {
		switch h := any(h).(type) {
		case *Hash[K, int]:
			return any(addHash(h, n)).(func(K, V))
		case *Hash[K, int64]:
			return any(addHash(h, n)).(func(K, V))
		case *Hash[K, uint64]:
			return any(addHash(h, n)).(func(K, V))
		case *Hash[K, float64]:
			return any(addHash(h, n)).(func(K, V))
		}
	}
	return func(k K, v V) {
		*n++
		h.Update(k, v, combine)
	}
}

// addHash is h's fold under Sum: find's probe with an inline add, written
// out for identity-hashed int keys and for string keys under HashString.
func addHash[K comparable, V Number](h *Hash[K, V], n *uint64) func(K, V) {
	switch h := any(h).(type) {
	case *Hash[int, V]:
		if is(h.hash, identities) {
			return any(addInt(h, n)).(func(K, V))
		}
	case *Hash[uint64, V]:
		if is(h.hash, identities) {
			return any(addInt(h, n)).(func(K, V))
		}
	case *Hash[string, V]:
		if h.wy {
			return any(addString(h, n)).(func(K, V))
		}
	}
	return func(k K, v V) {
		*n++
		add(h, k, v)
	}
}

// add folds v into k's accumulator with an add, through find.
func add[K comparable, V Number](h *Hash[K, V], k K, v V) {
	if i, ok := h.find(k); ok {
		*h.val(i) += v
	} else {
		h.put(i, k, v)
	}
}

// addInt is addHash's fold for an identity hasher: the home slot is
// uint64(k)·fib >> shift, as the hasher's call would give.
//
// addInt and addString are not inlined into addHash: a closure copied
// into its caller by the inliner keeps the calls in its body, where the
// folds need shortWords, hashWords and home inlined.
//
//go:noinline
func addInt[K int | uint64, V Number](h *Hash[K, V], n *uint64) func(K, V) {
	return func(k K, v V) {
		*n++
		slots, mask := h.slots, h.mask
		for i := home(uint64(k), h.shift); ; i = (i + 1) & mask {
			s := &slots[i]
			if !s.full {
				h.put(i, k, v)
				return
			}
			if s.k == k {
				s.v += v
				return
			}
		}
	}
}

// addString is addHash's fold for string keys under HashString: find's
// probe with an inline add. A key of up to 16 bytes is loaded once, for
// its words, and its hash is mixed from them; a longer key, rare in text,
// takes add. Nothing is live across a call on the short path, so the fold
// spills nothing.
//
//go:noinline
func addString[V Number](h *Hash[string, V], n *uint64) func(string, V) {
	sd := h.seed
	return func(k string, v V) {
		*n++
		if len(k) > 16 {
			add(h, k, v)
			return
		}
		a, b := shortWords(k)
		tag, hk := uint8(len(k)+1), hashWords(a, b, len(k), sd)
		strs, mask := h.strs, h.mask
		for i := home(hk, h.shift); ; i = (i + 1) & mask {
			s := &strs[i]
			if s.tag == tag && s.a == a && s.b == b {
				s.v += v
				return
			}
			if s.tag == 0 {
				h.put(i, k, v)
				return
			}
		}
	}
}

// UpdateBatch folds each pair of kvs into its slot, as Update does; the
// batch costs one interface dispatch.
func (h *Hash[K, V]) UpdateBatch(kvs []KV[K, V], combine Combine[V]) {
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
func (h *Hash[K, V]) Get(k K) (V, bool) {
	if i, ok := h.find(k); ok {
		return *h.val(i), true
	}
	var zero V
	return zero, false
}

// Len returns the number of distinct keys stored.
func (h *Hash[K, V]) Len() int { return h.n }

// Iterate visits pairs in slot order.
func (h *Hash[K, V]) Iterate(f func(K, V) bool) {
	for i := range h.strs {
		if h.strs[i].tag != 0 && !f(h.keys[i], h.strs[i].v) {
			return
		}
	}
	for i := range h.slots {
		if s := &h.slots[i]; s.full && !f(s.k, s.v) {
			return
		}
	}
}

// Reset empties the table, retaining its slabs: a grown table stays grown.
func (h *Hash[K, V]) Reset() {
	clear(h.slots)
	clear(h.strs)
	clear(h.keys)
	h.n = 0
}

// Kind reports KindHash for a growing table, KindFixedHash for a fixed one.
func (h *Hash[K, V]) Kind() Kind { return h.kind }

var _ Container[string, int] = (*Hash[string, int])(nil)
