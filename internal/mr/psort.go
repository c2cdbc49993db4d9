package mr

import (
	"sort"
	"sync"
)

// psortThreshold is the slice size below which the parallel sort falls
// back to the standard library: goroutine fan-out only pays for itself on
// large outputs (WC emits tens of thousands of distinct keys, MM millions
// of cells).
const psortThreshold = 4096

// SortPairsParallel orders pairs by key using a parallel merge sort over
// `workers` goroutines; the merge phase of both engines calls it so a
// large final output doesn't serialize on one core. Falls back to the
// sequential sort for small outputs or a single worker. A nil less is a
// no-op, matching SortPairs. A panicking less is returned as a
// *PanicError, whichever goroutine it panicked on.
func SortPairsParallel[K comparable, R any](pairs []Pair[K, R], less func(a, b K) bool, workers int) error {
	if less == nil {
		return nil
	}
	var firstErr FirstError
	guard := func(sort func()) {
		defer func() {
			if r := recover(); r != nil {
				firstErr.Set(&PanicError{Engine: "mr", Worker: "merge", Value: r})
			}
		}()
		sort()
	}
	if workers < 2 || len(pairs) < psortThreshold {
		guard(func() { SortPairs(pairs, less) })
		return firstErr.Get()
	}
	if workers > len(pairs)/psortThreshold+1 {
		workers = len(pairs)/psortThreshold + 1
	}

	// Sort `workers` contiguous runs concurrently...
	n := len(pairs)
	bounds := make([]int, workers+1)
	for w := 0; w <= workers; w++ {
		bounds[w] = w * n / workers
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := bounds[w], bounds[w+1]
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(s []Pair[K, R]) {
			defer wg.Done()
			guard(func() { sort.Slice(s, func(i, j int) bool { return less(s[i].Key, s[j].Key) }) })
		}(pairs[lo:hi])
	}
	wg.Wait()
	if err := firstErr.Get(); err != nil {
		return err
	}

	// ...then merge runs pairwise in parallel rounds.
	runs := make([][2]int, 0, workers)
	for w := 0; w < workers; w++ {
		if bounds[w] < bounds[w+1] {
			runs = append(runs, [2]int{bounds[w], bounds[w+1]})
		}
	}
	buf := make([]Pair[K, R], n)
	src, dst := pairs, buf
	for len(runs) > 1 {
		next := make([][2]int, 0, (len(runs)+1)/2)
		var mwg sync.WaitGroup
		for i := 0; i+1 < len(runs); i += 2 {
			a, b := runs[i], runs[i+1]
			next = append(next, [2]int{a[0], b[1]})
			mwg.Add(1)
			go func(a, b [2]int) {
				defer mwg.Done()
				guard(func() { mergeRuns(dst[a[0]:b[1]], src[a[0]:a[1]], src[b[0]:b[1]], less) })
			}(a, b)
		}
		if len(runs)%2 == 1 {
			last := runs[len(runs)-1]
			next = append(next, last)
			mwg.Add(1)
			go func(r [2]int) {
				defer mwg.Done()
				copy(dst[r[0]:r[1]], src[r[0]:r[1]])
			}(last)
		}
		mwg.Wait()
		if err := firstErr.Get(); err != nil {
			return err
		}
		runs = next
		src, dst = dst, src
	}
	if &src[0] != &pairs[0] {
		copy(pairs, src)
	}
	return nil
}

// mergeRuns merges two sorted runs into out (len(out) == len(a)+len(b)).
func mergeRuns[K comparable, R any](out, a, b []Pair[K, R], less func(x, y K) bool) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if less(b[j].Key, a[i].Key) {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
		k++
	}
	copy(out[k:], a[i:])
	copy(out[k+len(a)-i:], b[j:])
}
