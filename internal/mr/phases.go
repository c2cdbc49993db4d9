package mr

import (
	"sort"

	"ramr/internal/container"
)

// MergeContainers folds all containers into cs[0] with a binary-tree
// merge, one ForEach per tree level, and returns cs[0]. The slice is
// clobbered. A level gets a share per Grain keys it folds, at most one per
// pair (shares): on a 2-CPU pool the tree is one pair, which the caller
// merges. Both engines use it between the map-combine and
// reduce phases; the input and merging phases are identical across
// engines, exactly as the paper keeps them ("the input partitioning and
// merging phases remain the same as in typical MR libraries").
// A panicking user Combine is reported as an error rather than crashing
// the merging goroutines.
func MergeContainers[K comparable, V any](cs []container.Container[K, V], combine container.Combine[V]) (container.Container[K, V], error) {
	if len(cs) == 0 {
		return nil, nil
	}
	for stride := 1; stride < len(cs); stride *= 2 {
		pairs, items := 0, 0
		for i := 0; i+stride < len(cs); i += 2 * stride {
			pairs, items = pairs+1, items+cs[i+stride].Len()
		}
		err := ForEach(pairs, shares(items, pairs), "combine (merge)", func(lo, hi int) {
			for p := lo; p < hi; p++ {
				container.Merge(cs[2*stride*p], cs[2*stride*p+stride], combine)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	return cs[0], nil
}

// ReduceAll applies reduce to every key of the merged container on up to
// the given number of workers, one per Grain keys (the caller among them),
// and returns the unordered result pairs. The reduce function may be
// called concurrently; a panic inside it is returned as an error.
func ReduceAll[K comparable, V, R any](merged container.Container[K, V], reduce func(K, V) R, workers int) ([]Pair[K, R], error) {
	if merged == nil || merged.Len() == 0 {
		return nil, nil
	}
	in := make([]Pair[K, V], 0, merged.Len())
	merged.Iterate(func(k K, v V) bool {
		in = append(in, Pair[K, V]{k, v})
		return true
	})
	out := make([]Pair[K, R], len(in))
	err := ForEach(len(in), shares(len(in), workers), "reduce", func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = Pair[K, R]{in[i].Key, reduce(in[i].Key, in[i].Value)}
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SortPairs orders pairs by key with less when non-nil.
func SortPairs[K comparable, R any](pairs []Pair[K, R], less func(a, b K) bool) {
	if less == nil {
		return
	}
	sort.Slice(pairs, func(i, j int) bool { return less(pairs[i].Key, pairs[j].Key) })
}

// Tasks groups the splits of a job into tasks of taskSize consecutive
// splits, returning [start,end) index ranges into the splits slice.
func Tasks(nSplits, taskSize int) [][2]int {
	if taskSize < 1 {
		taskSize = 1
	}
	tasks := make([][2]int, 0, (nSplits+taskSize-1)/taskSize)
	for lo := 0; lo < nSplits; lo += taskSize {
		hi := lo + taskSize
		if hi > nSplits {
			hi = nSplits
		}
		tasks = append(tasks, [2]int{lo, hi})
	}
	return tasks
}
