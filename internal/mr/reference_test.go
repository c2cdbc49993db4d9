package mr

import (
	"fmt"
	"testing"

	"ramr/internal/container"
)

// TestReference pins the oracle's semantics: a key's first value is stored
// as is (max over negative values would read 0 if folding started from the
// zero value), later ones are folded with Combine, Reduce finalizes every
// key once and Less orders the output.
func TestReference(t *testing.T) {
	spec := &Spec[[]int, int, int, string]{
		Splits: [][]int{{-5, -7, -2}, {-9, -3}, {-4}},
		Map: func(s []int, emit func(int, int)) {
			for _, v := range s {
				emit(-v%2, v)
			}
		},
		Combine:      func(a, b int) int { return max(a, b) },
		Reduce:       func(k, v int) string { return fmt.Sprintf("%d:%d", k, v) },
		NewContainer: func() container.Container[int, int] { panic("the reference uses no container") },
		Less:         func(a, b int) bool { return a > b },
	}
	if got, want := fmt.Sprint(Reference(spec)), "[{1 1:-3} {0 0:-2}]"; got != want {
		t.Fatalf("Reference = %s, want %s", got, want)
	}
	spec.Splits = nil
	if got := Reference(spec); len(got) != 0 {
		t.Fatalf("empty input: %v", got)
	}
}
