package faultinject_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"ramr/internal/faultinject"
	"ramr/internal/mr"
	"ramr/internal/stream"
	"ramr/internal/topology"
)

// A work-conserving session runs Map on a combiner slot's goroutine: an idle
// slot takes one queued split and folds what it emits into its own pane
// containers. The two scenarios below land a panic and a cancellation inside
// such a split. Both are built on 1+1 workers and steered with hooks: the
// mapper pushes two slabs of its first split — which wakes the parked slot,
// whose next empty round takes a split — and then waits inside that split
// until the session is doomed, so the slot's fault is the session's first.

// streamConserve is the 1+1 session both scenarios run, on a machine with a
// CPU for each worker so the slot helps, and the mapper's hold: a MapEmit
// hook for the mapper that stops at its ninth pair until the session is
// doomed. slotHook is the slot's MapEmit hook, given the session and
// the slot's pair count so far.
func streamConserve(t *testing.T, slotHook func(*stream.Pipeline[int, int, uint64, uint64], int64)) *stream.Pipeline[int, int, uint64, uint64] {
	t.Helper()
	cfg := mr.DefaultConfig()
	cfg.Mappers, cfg.Combiners = 1, 1
	cfg.Machine = topology.Flat(4)
	cfg.Pin = mr.PinNone
	cfg.QueueCapacity, cfg.BatchSize, cfg.EmitBatch = 16, 4, 4
	cfg.Stream = &mr.StreamSpec{Window: 1, MaxPending: 2 * streamSplits}
	var p *stream.Pipeline[int, int, uint64, uint64]
	var mapperEmits, slotEmits int64
	var hold sync.Once
	cfg.Hooks = &mr.Hooks{MapEmit: func(w int) {
		if w >= cfg.Mappers {
			slotEmits++ // the slot's goroutine only
			slotHook(p, slotEmits)
			return
		}
		if mapperEmits++; mapperEmits == 9 {
			hold.Do(func() { untilDoomed(p) })
		}
	}}
	p, err := stream.New(streamSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	chunk := stream.Chunk[int]{Splits: make([]int, streamSplits)}
	for i := range chunk.Splits {
		chunk.Splits[i] = streamElems
	}
	if _, err := p.Append(chunk); err != nil {
		t.Fatal(err)
	}
	return p
}

// untilDoomed waits, bounded, until p has recorded its first error.
func untilDoomed(p *stream.Pipeline[int, int, uint64, uint64]) {
	for deadline := time.Now().Add(20 * time.Second); p.Err() == nil && time.Now().Before(deadline); {
		time.Sleep(50 * time.Microsecond)
	}
}

// endStream asserts what every doomed session owes its caller once it has
// stopped: the rings drained and no worker goroutine left.
func endStream(t *testing.T, p *stream.Pipeline[int, int, uint64, uint64]) {
	t.Helper()
	select {
	case <-p.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("session wedged")
	}
	if qs := p.QueueStats(); qs.Pushes != qs.Pops {
		t.Fatalf("rings not drained: %d pushed, %d popped", qs.Pushes, qs.Pops)
	}
	if leaked := faultinject.AwaitNoWorkers(10 * time.Second); len(leaked) > 0 {
		t.Fatalf("%d leaked worker goroutines:\n%s", len(leaked), leaked[0])
	}
}

// TestConserveStreamMapPanicOnHelpingSlot: Map panics in the middle of a
// split a combiner slot took from the session's task channel. The panic must
// fail the session with the slot's *mr.PanicError — the mapper is still held
// inside its own split — and the slot must still drain the ring its mapper
// goes on to fill.
func TestConserveStreamMapPanicOnHelpingSlot(t *testing.T) {
	p := streamConserve(t, func(_ *stream.Pipeline[int, int, uint64, uint64], n int64) {
		if n == 5 {
			panic(faultinject.InjectedPanic{})
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := p.Close(ctx)
	var pe *mr.PanicError
	if !errors.As(err, &pe) || pe.Engine != "stream" || !strings.HasPrefix(pe.Worker, "combine worker") {
		t.Fatalf("err = %v, want the helping slot's *mr.PanicError", err)
	}
	if _, ok := pe.Value.(faultinject.InjectedPanic); !ok {
		t.Fatalf("panic value %v is not the injected one", pe.Value)
	}
	endStream(t, p)
	if n := p.SealedCount(); n != 0 {
		t.Fatalf("%d windows published by a session whose only window lost a split", n)
	}
}

// TestConserveStreamCancelMidHelp: the session is cancelled while a combiner
// slot is inside a split it took. CancelWait must return — the slot finishes
// that split, takes no other, and discard-drains its ring — and the session
// ends in context.Canceled.
func TestConserveStreamCancelMidHelp(t *testing.T) {
	inside := make(chan struct{})
	var once sync.Once
	p := streamConserve(t, func(p *stream.Pipeline[int, int, uint64, uint64], _ int64) {
		once.Do(func() {
			close(inside)
			untilDoomed(p)
		})
	})
	within(inside)
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		p.CancelWait()
	}()
	select {
	case <-returned:
	case <-time.After(30 * time.Second):
		t.Fatal("CancelWait did not return")
	}
	if err := p.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if h := p.HelpStats(); h.Tasks != 1 {
		t.Fatalf("help %+v: want the one split the cancel found the slot in", h)
	}
	endStream(t, p)
}
