package mr

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// onCaller reports whether the running goroutine is the one that called
// the test named fn.
func onCaller(fn string) bool {
	buf := make([]byte, 8<<10)
	return strings.Contains(string(buf[:runtime.Stack(buf, false)]), "ramr/internal/mr."+fn+"(")
}

// TestForEach: every index runs exactly once, in min(width, n) contiguous
// shares, exactly one of them on the caller; a width of 1 or less starts
// no goroutine, and n = 0 calls nothing.
func TestForEach(t *testing.T) {
	for _, n := range []int{0, 1, Grain - 1, Grain, Grain + 1, 10 * Grain} {
		for _, width := range []int{-1, 0, 1, 2, 3, 8} {
			hits := make([]atomic.Int32, n)
			var calls, onCallers atomic.Int32
			err := ForEach(n, width, "probe", func(lo, hi int) {
				calls.Add(1)
				if onCaller("TestForEach") {
					onCallers.Add(1)
				}
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			if err != nil {
				t.Fatalf("n=%d width=%d: %v", n, width, err)
			}
			for i := range hits {
				if h := hits[i].Load(); h != 1 {
					t.Fatalf("n=%d width=%d: index %d ran %d times", n, width, i, h)
				}
			}
			want := int32(max(1, min(width, n)))
			if n == 0 {
				want = 0
			}
			if calls.Load() != want || onCallers.Load() != min(want, 1) {
				t.Fatalf("n=%d width=%d: %d shares, %d on the caller; want %d, %d",
					n, width, calls.Load(), onCallers.Load(), want, min(want, 1))
			}
		}
	}
}

// TestForEachPanic: a panic in the first, a middle or the last share comes
// back as a *PanicError with the given worker name, and only once every
// other share has finished.
func TestForEachPanic(t *testing.T) {
	const n = 10 * Grain
	for _, width := range []int{1, 3, 8} {
		for _, at := range []int{0, width / 2, width - 1} {
			var done atomic.Int32
			err := ForEach(n, width, "probe", func(lo, hi int) {
				if lo == n*at/width {
					panic("share exploded")
				}
				time.Sleep(2 * time.Millisecond)
				done.Add(1)
			})
			var pe *PanicError
			if !errors.As(err, &pe) || pe.Engine != "mr" || pe.Worker != "probe" || pe.Value != "share exploded" {
				t.Fatalf("width=%d, panic in share %d: err = %v, want the probe's *PanicError", width, at, err)
			}
			if d := done.Load(); d != int32(width-1) {
				t.Fatalf("width=%d, panic in share %d: %d of %d other shares done at return", width, at, d, width-1)
			}
		}
	}
}
