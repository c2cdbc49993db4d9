package container

// FixedArray is a dense container for integer keys in a known range
// [0, n): the accumulator for key k lives at index k. This is the default
// Phoenix++ container for every app whose key space is known a priori —
// histogram buckets, regression coefficient ids, cluster ids, matrix cells.
//
// Access is a single indexed load/store with perfect spatial regularity,
// which is exactly why the paper uses it as the *low* memory-intensity
// configuration: no hashing, no allocation, no pointer chasing.
type FixedArray[V any] struct {
	vals    []V
	present []bool
	_       fence
	n       int
	_       fence
}

// NewFixedArray returns a container for keys in [0, size). It panics on a
// non-positive size, which is always a construction bug.
func NewFixedArray[V any](size int) *FixedArray[V] {
	if size <= 0 {
		panic("container: FixedArray size must be positive")
	}
	return &FixedArray[V]{
		vals:    isolated[V](size, size),
		present: isolated[bool](size, size),
	}
}

// Update folds v into the accumulator at k. Keys outside [0, size) panic:
// the key range was declared a priori, so an out-of-range key means the
// application's map function is broken and silently dropping it would
// corrupt results.
func (a *FixedArray[V]) Update(k int, v V, combine Combine[V]) {
	if a.present[k] {
		a.vals[k] = combine(a.vals[k], v)
		return
	}
	a.vals[k] = v
	a.present[k] = true
	a.n++
}

// Fold returns the per-pair fold into a: Update's body over the backing
// arrays it captures, which Reset keeps, counting each pair in *n. Under
// Sum the fold adds inline.
func (a *FixedArray[V]) Fold(combine Combine[V], n *uint64) func(int, V) {
	if is(combine, sums) {
		switch a := any(a).(type) {
		case *FixedArray[int]:
			return any(addArray(a, n)).(func(int, V))
		case *FixedArray[int64]:
			return any(addArray(a, n)).(func(int, V))
		case *FixedArray[uint64]:
			return any(addArray(a, n)).(func(int, V))
		case *FixedArray[float64]:
			return any(addArray(a, n)).(func(int, V))
		}
	}
	vals, present := a.vals, a.present
	return func(k int, v V) {
		*n++
		if present[k] {
			vals[k] = combine(vals[k], v)
			return
		}
		vals[k], present[k] = v, true
		a.n++
	}
}

// addArray is a's fold under Sum: Fold's body with combine's call made an
// add.
func addArray[V Number](a *FixedArray[V], n *uint64) func(int, V) {
	vals, present := a.vals, a.present
	return func(k int, v V) {
		*n++
		if present[k] {
			vals[k] += v
			return
		}
		vals[k], present[k] = v, true
		a.n++
	}
}

// UpdateBatch folds each pair of kvs into its accumulator. The loop runs
// over the dense backing arrays directly, so a batch of b pairs costs one
// interface dispatch plus b indexed accesses.
func (a *FixedArray[V]) UpdateBatch(kvs []KV[int, V], combine Combine[V]) {
	for _, p := range kvs {
		if a.present[p.K] {
			a.vals[p.K] = combine(a.vals[p.K], p.V)
			continue
		}
		a.vals[p.K] = p.V
		a.present[p.K] = true
		a.n++
	}
}

// Get returns the accumulator for k.
func (a *FixedArray[V]) Get(k int) (V, bool) {
	var zero V
	if k < 0 || k >= len(a.vals) || !a.present[k] {
		return zero, false
	}
	return a.vals[k], true
}

// Len returns the number of keys with accumulators.
func (a *FixedArray[V]) Len() int { return a.n }

// Cap returns the declared key-range size.
func (a *FixedArray[V]) Cap() int { return len(a.vals) }

// Iterate visits present keys in ascending order.
func (a *FixedArray[V]) Iterate(f func(int, V) bool) {
	for k, p := range a.present {
		if p && !f(k, a.vals[k]) {
			return
		}
	}
}

// Reset empties the container, retaining the backing arrays.
func (a *FixedArray[V]) Reset() {
	var zero V
	for i := range a.vals {
		a.vals[i] = zero
		a.present[i] = false
	}
	a.n = 0
}

// Kind reports KindFixedArray.
func (a *FixedArray[V]) Kind() Kind { return KindFixedArray }

var _ Container[int, int] = (*FixedArray[int])(nil)
