package mr

import (
	"errors"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func intLess(a, b int) bool { return a < b }

func TestSortPairsParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 100, psortThreshold - 1, psortThreshold, 3*psortThreshold + 17, 50_000} {
		for _, workers := range []int{1, 2, 3, 8} {
			a := make([]Pair[int, int], n)
			for i := range a {
				a[i] = Pair[int, int]{Key: rng.Intn(n/2 + 1), Value: i}
			}
			b := append([]Pair[int, int](nil), a...)
			SortPairs(a, intLess)
			SortPairsParallel(b, intLess, workers)
			for i := range a {
				if a[i].Key != b[i].Key {
					t.Fatalf("n=%d w=%d: key order differs at %d: %d vs %d", n, workers, i, a[i].Key, b[i].Key)
				}
			}
			if !sort.SliceIsSorted(b, func(i, j int) bool { return b[i].Key < b[j].Key }) {
				t.Fatalf("n=%d w=%d: not sorted", n, workers)
			}
		}
	}
}

func TestSortPairsParallelNilLess(t *testing.T) {
	pairs := []Pair[int, int]{{3, 0}, {1, 0}}
	SortPairsParallel(pairs, nil, 4)
	if pairs[0].Key != 3 {
		t.Fatal("nil less should be a no-op")
	}
}

// TestQuickParallelSortIsPermutation: the parallel sort is a sorted
// permutation of its input for arbitrary key multisets.
func TestQuickParallelSortIsPermutation(t *testing.T) {
	f := func(keys []uint16, workers uint8) bool {
		pairs := make([]Pair[uint16, int], len(keys))
		countIn := map[uint16]int{}
		for i, k := range keys {
			pairs[i] = Pair[uint16, int]{Key: k}
			countIn[k]++
		}
		SortPairsParallel(pairs, func(a, b uint16) bool { return a < b }, int(workers%8)+1)
		countOut := map[uint16]int{}
		for i, p := range pairs {
			countOut[p.Key]++
			if i > 0 && pairs[i-1].Key > p.Key {
				return false
			}
		}
		if len(countIn) != len(countOut) {
			return false
		}
		for k, n := range countIn {
			if countOut[k] != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeRuns(t *testing.T) {
	a := []Pair[int, int]{{1, 0}, {3, 0}, {5, 0}}
	b := []Pair[int, int]{{2, 0}, {3, 1}, {9, 0}}
	out := make([]Pair[int, int], 6)
	mergeRuns(out, a, b, intLess)
	want := []int{1, 2, 3, 3, 5, 9}
	for i, p := range out {
		if p.Key != want[i] {
			t.Fatalf("out[%d] = %d, want %d", i, p.Key, want[i])
		}
	}
	// Stability across runs: equal keys keep a-before-b order.
	if out[2].Value != 0 || out[3].Value != 1 {
		t.Fatal("merge not stable for equal keys")
	}
}

// TestSortPairsParallelLessPanic: a panicking less comes back as the
// merge's *PanicError, not as a crash, whether it fires on the caller's
// goroutine (small output), on a run sorter or in the final merge round.
func TestSortPairsParallelLessPanic(t *testing.T) {
	input := func(n int) []Pair[int, int] {
		rng := rand.New(rand.NewSource(int64(n)))
		a := make([]Pair[int, int], n)
		for i := range a {
			a[i].Key = rng.Int()
		}
		return a
	}
	// calls counts the comparisons of a clean parallel sort of 20,000
	// keys; the last one is made by the final merge round.
	var calls atomic.Int64
	SortPairsParallel(input(20_000), func(a, b int) bool { calls.Add(1); return a < b }, 4)
	for _, tc := range []struct {
		n  int
		at int64
	}{{20, 1}, {20_000, 1}, {20_000, calls.Load()}} {
		var made atomic.Int64
		less := func(a, b int) bool {
			if made.Add(1) == tc.at {
				panic("less exploded")
			}
			return a < b
		}
		err := SortPairsParallel(input(tc.n), less, 4)
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Engine != "mr" || pe.Worker != "merge" {
			t.Fatalf("n=%d, panic at call %d: err = %v, want the merge's *PanicError", tc.n, tc.at, err)
		}
	}
}
