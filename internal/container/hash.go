package container

import "math"

// Hash is the regular dynamically-growing hash container, corresponding to
// Phoenix++'s default Word Count container and to the "regular hash table"
// used for MM and PCA in the memory-intensive configuration. Growth
// reallocates and rehashes, adding the dynamic allocation cost the paper
// calls out.
//
// The Go map holds each key's index into a slab of accumulators, not the
// accumulator itself: folding into a key already present — nearly every
// update — is then one map lookup and a store into the slab, where a
// map[K]V pays a lookup and an assignment (a second hash and probe, and a
// write to the map header on every pair). The keys are kept in a slab of
// their own, in the same order, so Iterate is a walk over two arrays.
type Hash[K comparable, V any] struct {
	index map[K]int32
	keys  []K // keys[i] is the key whose accumulator is vals[i]
	vals  []V // isolated; grown by doubling, never by append's own reallocation
}

// NewHash returns an empty regular hash container with a small initial
// reservation.
func NewHash[K comparable, V any]() *Hash[K, V] { return NewHashSized[K, V](64) }

// NewHashSized returns an empty container pre-reserving room for n keys.
func NewHashSized[K comparable, V any](n int) *Hash[K, V] {
	if n < 0 {
		n = 0
	}
	return &Hash[K, V]{index: make(map[K]int32, n), keys: make([]K, 0, n), vals: isolated[V](0, n)}
}

// insert gives k a fresh accumulator holding v.
func (h *Hash[K, V]) insert(k K, v V) {
	n := len(h.vals)
	if n == math.MaxInt32 {
		panic("container: Hash cannot hold more than 2^31-1 distinct keys")
	}
	if n == cap(h.vals) {
		grown := isolated[V](n, max(2*n, 64))
		copy(grown, h.vals)
		h.vals = grown
	}
	h.index[k] = int32(n)
	h.keys = append(h.keys, k)
	h.vals = append(h.vals, v)
}

// Update folds v into the accumulator for k.
func (h *Hash[K, V]) Update(k K, v V, combine Combine[V]) {
	if i, ok := h.index[k]; ok {
		h.vals[i] = combine(h.vals[i], v)
		return
	}
	h.insert(k, v)
}

// Fold returns the per-pair fold into h: Update's body, counting each pair
// in *n. It reaches the slab through h, because insert regrows it. Under
// Sum the fold adds inline.
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
		if i, ok := h.index[k]; ok {
			h.vals[i] = combine(h.vals[i], v)
			return
		}
		h.insert(k, v)
	}
}

// addHash is h's fold under Sum: Fold's body with combine's call made an
// add.
func addHash[K comparable, V Number](h *Hash[K, V], n *uint64) func(K, V) {
	return func(k K, v V) {
		*n++
		if i, ok := h.index[k]; ok {
			h.vals[i] += v
			return
		}
		h.insert(k, v)
	}
}

// UpdateBatch folds each pair of kvs into its accumulator, touching the
// map directly so a batch costs one interface dispatch.
func (h *Hash[K, V]) UpdateBatch(kvs []KV[K, V], combine Combine[V]) {
	for _, p := range kvs {
		if i, ok := h.index[p.K]; ok {
			h.vals[i] = combine(h.vals[i], p.V)
			continue
		}
		h.insert(p.K, p.V)
	}
}

// Get returns the accumulator for k.
func (h *Hash[K, V]) Get(k K) (V, bool) {
	if i, ok := h.index[k]; ok {
		return h.vals[i], true
	}
	var zero V
	return zero, false
}

// Len returns the number of distinct keys stored.
func (h *Hash[K, V]) Len() int { return len(h.vals) }

// Iterate visits pairs in the order their keys were first seen.
func (h *Hash[K, V]) Iterate(f func(K, V) bool) {
	for i, k := range h.keys {
		if !f(k, h.vals[i]) {
			return
		}
	}
}

// Reset empties the container. The map is cleared in place and the slabs
// truncated (zeroed first, so they pin nothing), so the buckets and the
// slabs stay allocated.
func (h *Hash[K, V]) Reset() {
	clear(h.index)
	clear(h.keys)
	clear(h.vals)
	h.keys, h.vals = h.keys[:0], h.vals[:0]
}

// Kind reports KindHash.
func (h *Hash[K, V]) Kind() Kind { return KindHash }

var _ Container[string, int] = (*Hash[string, int])(nil)
