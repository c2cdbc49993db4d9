// Package container provides the intermediate key-value containers that sit
// between the map and reduce phases, mirroring the container taxonomy of
// Phoenix++ that the paper evaluates (§IV-D):
//
//   - FixedArray — a dense array indexed directly by key, the default for
//     every benchmark app whose key range is known a priori (HG, LR, KM,
//     PCA, MM).
//   - FixedHash — an open-addressing hash table of fixed, pre-allocated
//     capacity; the "fixed-size hash container" used to stress the memory
//     subsystem in Figs. 8b/9b.
//   - Hash — a regular dynamically-growing hash table (Go map), the
//     default for Word Count and the "regular hash container" for MM/PCA
//     in the memory-intensive configuration.
//
// A container accumulates one value per key under a user combine function
// and is private to one worker (Phoenix++) or one combiner (RAMR); Merge
// folds per-worker containers together before the reduce phase.
//
// Layout rule. The runtimes build their per-worker containers back to back,
// so the allocator hands them neighbouring memory, and workers that share
// nothing by design would still share cache lines: nothing a container
// writes on every update — its accumulators, its presence marks, its
// counters — may sit in a line that holds another container's words. The
// backing arrays are therefore allocated isolated, the counters are fenced
// inside their struct, and nothing is counted per probe (layout_test.go
// checks addresses; EXPERIMENTS.md, "Work-conserving pipeline", has what
// breaking the rule costs).
package container

import (
	"fmt"
	"strings"
	"unsafe"
)

// line is the cache-line size the layout rule is stated in.
const line = 64

// fence keeps the fields on its two sides on different cache lines.
type fence [line]byte

// isolated returns a zeroed slice of n elements, with room for limit, that
// shares no cache line with any other allocation: it is cut from the middle
// of a block with a full line of slack at either end.
func isolated[T any](n, limit int) []T {
	var zero T
	size := int(unsafe.Sizeof(zero))
	if size == 0 {
		return make([]T, n, limit)
	}
	slack := (line + size - 1) / size
	return make([]T, limit+2*slack)[slack : slack+n : slack+limit]
}

// Kind enumerates the container implementations.
type Kind int

const (
	// KindFixedArray is the dense array container.
	KindFixedArray Kind = iota
	// KindFixedHash is the fixed-capacity open-addressing hash container.
	KindFixedHash
	// KindHash is the regular dynamically-sized hash container.
	KindHash
)

// String names the kind as the paper does.
func (k Kind) String() string {
	switch k {
	case KindFixedArray:
		return "array"
	case KindFixedHash:
		return "fixed-hash"
	case KindHash:
		return "hash"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind maps a container name, case-insensitively, to its kind.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(s) {
	case "fixedarray", "fixed-array", "array":
		return KindFixedArray, nil
	case "fixedhash", "fixed-hash":
		return KindFixedHash, nil
	case "hash":
		return KindHash, nil
	default:
		return 0, fmt.Errorf("unknown container %q (want fixedarray|fixedhash|hash)", s)
	}
}

// Combine folds a newly emitted value into an accumulator. It must be
// associative; MapReduce gives no ordering guarantee across workers.
type Combine[V any] func(acc, v V) V

// KV is one intermediate key-value pair, the element of bulk container
// updates. It is also the element type the RAMR engine streams through its
// SPSC queues, so a consumed queue batch can be handed to UpdateBatch
// without per-element repacking.
type KV[K comparable, V any] struct {
	K K
	V V
}

// Container accumulates combined values by key. Implementations are not
// safe for concurrent use — the runtimes give each worker its own instance,
// exactly as the paper prescribes ("a separate container is allocated to
// each combiner").
type Container[K comparable, V any] interface {
	// Update folds v into the accumulator for k using combine.
	Update(k K, v V, combine Combine[V])
	// UpdateBatch folds every pair of kvs into the container, equivalent
	// to calling Update once per element in order. Implementations
	// specialize the loop so the combiner's hot path pays one interface
	// dispatch per batch instead of one per pair.
	UpdateBatch(kvs []KV[K, V], combine Combine[V])
	// Get returns the accumulator for k.
	Get(k K) (V, bool)
	// Len returns the number of distinct keys present.
	Len() int
	// Iterate visits every (key, accumulator) pair until f returns
	// false. Iteration order is implementation-defined.
	Iterate(f func(K, V) bool)
	// Reset empties the container, retaining its allocation.
	Reset()
	// Kind identifies the implementation.
	Kind() Kind
}

// mergeBatch is how many pairs Merge buffers between bulk updates of the
// destination; large enough to amortize the dispatch, small enough to stay
// cache-resident.
const mergeBatch = 256

// Merge folds every pair of src into dst using combine. It is the
// inter-container reduction used when per-worker results are gathered.
// Pairs are staged through a small buffer and applied with UpdateBatch so
// the destination side of the merge runs on the same bulk path as the
// combiners.
func Merge[K comparable, V any](dst, src Container[K, V], combine Combine[V]) {
	buf := make([]KV[K, V], 0, mergeBatch)
	src.Iterate(func(k K, v V) bool {
		buf = append(buf, KV[K, V]{k, v})
		if len(buf) == cap(buf) {
			dst.UpdateBatch(buf, combine)
			buf = buf[:0]
		}
		return true
	})
	dst.UpdateBatch(buf, combine)
}

// Factory builds fresh containers of one configured kind; the runtimes use
// it to allocate per-worker instances without knowing the concrete type.
type Factory[K comparable, V any] func() Container[K, V]
