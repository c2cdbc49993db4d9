package mr

// SortPairsParallel orders pairs by key with a merge sort over up to
// `workers` goroutines, one per Grain pairs (shares): ForEach sorts that
// many contiguous runs, then merges neighbouring runs in rounds, each
// round one ForEach. The merge phase of both engines calls it, so a large
// final output doesn't serialize on one core, and an output of at most one
// Grain is one run, sorted on the caller. A nil less is a no-op, matching
// SortPairs. A panicking less is returned as a *PanicError, whichever
// goroutine it panicked on.
func SortPairsParallel[K comparable, R any](pairs []Pair[K, R], less func(a, b K) bool, workers int) error {
	if less == nil {
		return nil
	}
	n, w := len(pairs), shares(len(pairs), workers)
	if err := ForEach(n, w, "merge", func(lo, hi int) { SortPairs(pairs[lo:hi], less) }); err != nil {
		return err
	}
	// Run r is [bounds[r], bounds[r+1]): ForEach's share r.
	bounds := make([]int, w+1)
	for r := range bounds {
		bounds[r] = r * n / w
	}
	src, dst := pairs, []Pair[K, R](nil)
	if w > 1 {
		dst = make([]Pair[K, R], n)
	}
	for runs := w; runs > 1; runs = len(bounds) - 1 {
		// Output j merges runs 2j and 2j+1; an odd last run has an empty
		// partner, which mergeRuns turns into a copy.
		outs := (runs + 1) / 2
		err := ForEach(outs, outs, "merge", func(lo, hi int) {
			for j := lo; j < hi; j++ {
				a, mid, z := bounds[2*j], bounds[min(2*j+1, runs)], bounds[min(2*j+2, runs)]
				mergeRuns(dst[a:z], src[a:mid], src[mid:z], less)
			}
		})
		if err != nil {
			return err
		}
		next := bounds[:0]
		for r := 0; r < runs; r += 2 {
			next = append(next, bounds[r])
		}
		bounds = append(next, n)
		src, dst = dst, src
	}
	if n > 0 && &src[0] != &pairs[0] {
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
