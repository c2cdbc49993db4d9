package faultinject_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ramr/internal/faultinject"
	"ramr/internal/mr"
	"ramr/internal/stream"
	"ramr/internal/telemetry"
	"ramr/internal/topology"
)

// A session runs Map on every worker it has: it is one pool of fused
// workers, also on a plan where a batch run would ship pairs, so a combine
// worker maps splits and folds what it emits into its own pane containers.
// The two scenarios below land a panic and a cancellation inside a split on
// each plan, in a session of one map worker and one combine worker. Both are
// steered with hooks: worker 0 stops at its ninth pair until the session is
// doomed, so the fault in worker 1's split — the combine worker's — is the
// session's first.

// streamArms are the plans of the scenarios: unpinned on a machine with a
// CPU for each worker, and a plan whose batch run ships pairs (shipping).
var streamArms = []struct {
	name    string
	sibling bool
}{{"fused", false}, {"sibling", true}}

// streamConserve starts a session, on a sibling plan or unpinned, with one
// chunk queued and worker 0's hold in place. worker1 is worker 1's MapEmit hook, given the session and
// the worker's pair count so far; worker1Tasks counts the splits worker 1
// began. The returned Telemetry reads the session's books.
func streamConserve(t *testing.T, sibling bool, worker1 func(*stream.Pipeline[int, int, uint64, uint64], int64), worker1Tasks *atomic.Int64) (*stream.Pipeline[int, int, uint64, uint64], *telemetry.Telemetry) {
	t.Helper()
	cfg := mr.DefaultConfig()
	cfg.Mappers, cfg.Combiners = 1, 1
	cfg.Machine = topology.Flat(4)
	cfg.Pin = mr.PinNone
	if sibling {
		cfg = shipping(cfg)
	}
	cfg.Stream = &mr.StreamSpec{Window: 1, MaxPending: 2 * streamSplits}
	cfg.Telemetry = telemetry.New()
	var p *stream.Pipeline[int, int, uint64, uint64]
	var emits0, emits1 int64
	var hold sync.Once
	cfg.Hooks = &mr.Hooks{
		MapTask: func(w int) {
			if w == 1 {
				worker1Tasks.Add(1)
			}
		},
		MapEmit: func(w int) {
			switch w {
			case 0:
				if emits0++; emits0 == 9 {
					hold.Do(func() { untilDoomed(p) })
				}
			case 1:
				emits1++ // worker 1's goroutine only
				worker1(p, emits1)
			}
		},
	}
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
	return p, cfg.Telemetry
}

// untilDoomed waits, bounded, until p has recorded its first error.
func untilDoomed(p *stream.Pipeline[int, int, uint64, uint64]) {
	for deadline := time.Now().Add(20 * time.Second); p.Err() == nil && time.Now().Before(deadline); {
		time.Sleep(50 * time.Microsecond)
	}
}

// endStream asserts what every doomed session owes its caller once it has
// stopped: no worker goroutine left.
func endStream(t *testing.T, p *stream.Pipeline[int, int, uint64, uint64]) {
	t.Helper()
	select {
	case <-p.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("session wedged")
	}
	if leaked := faultinject.AwaitNoWorkers(10 * time.Second); len(leaked) > 0 {
		t.Fatalf("%d leaked worker goroutines:\n%s", len(leaked), leaked[0])
	}
}

// TestConserveStreamMapPanicMidSplit: Map panics in the middle of a split
// worker 1 took from the session's task channel. The panic must fail the
// session with worker 1's *mr.PanicError — worker 0 is still held inside its
// own split.
func TestConserveStreamMapPanicMidSplit(t *testing.T) {
	for _, arm := range streamArms {
		t.Run(arm.name, func(t *testing.T) {
			var tasks atomic.Int64
			p, _ := streamConserve(t, arm.sibling, func(_ *stream.Pipeline[int, int, uint64, uint64], n int64) {
				if n == 5 {
					panic(faultinject.InjectedPanic{})
				}
			}, &tasks)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			err := p.Close(ctx)
			var pe *mr.PanicError
			if !errors.As(err, &pe) || pe.Engine != "stream" || pe.Worker != "combine worker 0" {
				t.Fatalf("err = %v, want combine worker 0's *mr.PanicError", err)
			}
			if _, ok := pe.Value.(faultinject.InjectedPanic); !ok {
				t.Fatalf("panic value %v is not the injected one", pe.Value)
			}
			endStream(t, p)
			if n := p.SealedCount(); n != 0 {
				t.Fatalf("%d windows published by a session whose only window lost a split", n)
			}
		})
	}
}

// TestConserveStreamCancelMidHelp: the session is cancelled while worker 1
// is inside a split it took. CancelWait must return — the worker finishes
// that split and takes no other — and the session ends in context.Canceled.
// The split is the combine worker's, booked as its one task.
func TestConserveStreamCancelMidHelp(t *testing.T) {
	for _, arm := range streamArms {
		t.Run(arm.name, func(t *testing.T) {
			inside := make(chan struct{})
			var once sync.Once
			var tasks atomic.Int64
			p, tel := streamConserve(t, arm.sibling, func(p *stream.Pipeline[int, int, uint64, uint64], _ int64) {
				once.Do(func() {
					close(inside)
					untilDoomed(p)
				})
			}, &tasks)
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
			if n := tasks.Load(); n != 1 {
				t.Fatalf("worker 1 began %d splits; want the one the cancel found it in", n)
			}
			var combinerTasks uint64
			for _, w := range tel.EndRun(nil).Workers {
				if w.Role == "combiner" {
					combinerTasks += w.Tasks
				}
			}
			if combinerTasks != 1 {
				t.Fatalf("the combiner rows booked %d splits: want the combine worker's one", combinerTasks)
			}
			endStream(t, p)
		})
	}
}
