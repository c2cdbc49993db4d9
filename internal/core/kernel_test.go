package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ramr/internal/mr"
)

// TestPanickedFoldReleasesRingToken: a fold that panics is holding its
// ring's single-consumer token, and unwinds past the release. If the token
// stayed taken, a resize landing before the failed slot freezes the pool
// would hand the ring to a slot that finds it "owned", and that false
// violation could beat the panic to the run's error. Here the resize is
// made to land in exactly that gap — from inside Fail, which runs after the
// panicked round let go of the pool lock and before the freeze — and the
// new owner must simply consume the ring.
func TestPanickedFoldReleasesRingToken(t *testing.T) {
	qs := closedQueues(1)
	gates := testGates(2)
	qs[0].Push(pair[int, int]{K: 1, V: 1})
	qs[0].Push(pair[int, int]{K: 2, V: 1})
	qs[0].Flush() // short of a batch: consume it anyway

	var (
		abort  atomic.Bool
		mu     sync.Mutex
		errs   []error
		wg     sync.WaitGroup
		resize = make(chan func(int), 1) // StartCombiners' result, handed to fail
		moved  = make(chan struct{})
	)
	fail := func(err error) {
		mu.Lock()
		errs = append(errs, err)
		first := len(errs) == 1
		mu.Unlock()
		if !first {
			return
		}
		(<-resize)(2) // one ring over two slots: QueueAssignment gives it to slot 1
		select {
		case <-moved:
		case <-time.After(5 * time.Second):
		}
		abort.Store(true)
		for _, g := range gates {
			g.Wake()
		}
		qs[0].Close()
	}
	resize <- StartCombiners(context.Background(), &wg, Combiners[pair[int, int]]{
		Engine: "test",
		Queues: qs,
		Gates:  gates,
		Order:  ident(1),
		Active: 1,
		CPUs:   []int{-1, -1},
		Hooks:  &mr.Hooks{}, // arms the single-consumer guards
		Batch:  func() int { return 4 },
		Apply: func(slot int) func([]pair[int, int]) {
			if slot == 0 {
				return func([]pair[int, int]) { panic("fold exploded") }
			}
			return func([]pair[int, int]) { close(moved) }
		},
		Abort: abort.Load,
		Fail:  fail,
	})
	wg.Wait()

	var pe *mr.PanicError
	if len(errs) != 1 || !errors.As(errs[0], &pe) {
		t.Fatalf("run errors = %v, want only the fold's *mr.PanicError", errs)
	}
	select {
	case <-moved:
	default:
		t.Fatal("the ring's new owner never consumed it")
	}
	if !qs[0].Drained() {
		t.Fatal("ring not drained")
	}
}
