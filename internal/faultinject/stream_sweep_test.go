package faultinject_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"ramr/internal/container"
	"ramr/internal/faultinject"
	"ramr/internal/mr"
	"ramr/internal/stream"
)

// The stream sweep feeds every session the same input: streamChunks
// chunks at ticks 0, 1, 2, ... under a one-tick tumbling window, so window
// n is chunk n and holds exactly streamSplits*streamElems elements.
const (
	streamKeys   = 16
	streamChunks = 12
	streamSplits = 4
	streamElems  = 60
)

func streamSpec() *mr.Spec[int, int, uint64, uint64] {
	return &mr.Spec[int, int, uint64, uint64]{
		Name: "stream-sweep",
		Map: func(n int, emit func(int, uint64)) {
			for e := 0; e < n; e++ {
				emit(e%streamKeys, 1)
			}
		},
		Combine:      func(a, b uint64) uint64 { return a + b },
		Reduce:       mr.IdentityReduce[int, uint64](),
		NewContainer: func() container.Container[int, uint64] { return container.NewFixedArray[uint64](streamKeys) },
		Less:         func(a, b int) bool { return a < b },
	}
}

// streamScenario is one fault plan against a session configured with one
// ring geometry.
type streamScenario struct {
	name string
	plan faultinject.Plan
	// capacity is the configured ring capacity. A session builds no ring,
	// so it must run the same on every one, tiny rings included.
	capacity int
}

// runStreamScenario drives one session into its fault and asserts what a
// doomed session owes its caller: the typed error, nothing published at or
// after the window the fault landed in (sealing is in order and that
// window can never quiesce), every window that was published exact, no ring
// built, no goroutine left behind.
func runStreamScenario(t *testing.T, sc streamScenario) {
	t.Helper()
	cfg := mr.DefaultConfig()
	cfg.Mappers = 4
	cfg.Combiners = 2
	cfg.Pin = mr.PinNone
	cfg.QueueCapacity = sc.capacity
	cfg.BatchSize = 1 + sc.capacity/2
	cfg.EmitBatch = 3 // does not divide the tiny rings
	cfg.Stream = &mr.StreamSpec{Window: 1, MaxPending: 2 * streamSplits}

	// Every worker maps: combine worker j as worker Mappers+j.
	var p *stream.Pipeline[int, int, uint64, uint64]
	in := faultinject.NewInjector(sc.plan, cfg.Mappers+cfg.Combiners, cfg.Combiners, func() { p.Cancel() })
	cfg.Hooks = in.Hooks()
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
feed:
	for ts := int64(0); ts < streamChunks; ts++ {
		chunk.Ts = ts
		for {
			_, err := p.Append(chunk)
			var bp *stream.BackpressureError
			if errors.As(err, &bp) {
				time.Sleep(200 * time.Microsecond)
				continue
			}
			if err != nil {
				break feed // the session is already dying: that is the point
			}
			break
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err = p.Close(ctx)
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("%s: session wedged", sc.name)
	}
	<-p.Done()

	faulted := sc.plan.Kind != faultinject.None
	switch {
	case !faulted:
		if err != nil {
			t.Fatalf("%s: fault-free session failed: %v", sc.name, err)
		}
	case sc.plan.Kind.IsCancel():
		if !in.Fired() || !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: fired=%v err=%v, want context.Canceled", sc.name, in.Fired(), err)
		}
	default:
		var pe *mr.PanicError
		if !errors.As(err, &pe) || pe.Engine != "stream" {
			t.Fatalf("%s: err = %T (%v), want *mr.PanicError from stream", sc.name, err, err)
		}
		if _, ok := pe.Value.(faultinject.InjectedPanic); !ok {
			t.Fatalf("%s: panic value %v is not the injected one", sc.name, pe.Value)
		}
		if werr := checkWorker(pe, cfg); werr != nil {
			t.Fatalf("%s: %v", sc.name, werr)
		}
	}
	if faulted {
		if _, aerr := p.Append(chunk); !errors.Is(aerr, err) {
			t.Fatalf("%s: append to a failed session = %v, want %v", sc.name, aerr, err)
		}
	}

	ws := p.Windows()
	if faulted && len(ws) >= streamChunks {
		t.Fatalf("%s: all %d windows published by a session whose fault landed inside one", sc.name, len(ws))
	}
	if !faulted && len(ws) != streamChunks {
		t.Fatalf("%s: %d windows published, want %d", sc.name, len(ws), streamChunks)
	}
	for i, w := range ws {
		var sum uint64
		for _, pr := range w.Pairs {
			sum += pr.Value
		}
		if w.Index != int64(i) || w.Elements != streamSplits*streamElems || sum != w.Elements {
			t.Fatalf("%s: window %d (published %d-th) holds %d elements summing to %d, want %d",
				sc.name, w.Index, i, w.Elements, sum, streamSplits*streamElems)
		}
	}
	time.Sleep(2 * time.Millisecond)
	if n := p.SealedCount(); n != len(ws) {
		t.Fatalf("%s: a stopped session published %d more windows", sc.name, n-len(ws))
	}
	if rings := len(in.QueueReports()); rings != 0 {
		t.Fatalf("%s: %d rings reported by a session, want none", sc.name, rings)
	}
	if leaked := faultinject.AwaitNoWorkers(10 * time.Second); len(leaked) > 0 {
		t.Fatalf("%s: %d leaked worker goroutines:\n%s", sc.name, len(leaked), leaked[0])
	}
}

// TestStreamFaultSweep takes the engine sweep's map-side fault plans to the
// resident pipeline, one pool of fused workers that fires the same worker
// hook sites from the same kernel: a panic mid-emit and a Cancel in the
// middle of a split. A session folds each pair where it is made, so it has
// no combiner site to fault. The session's workers pull splits from one
// channel, so which of them sees how much is the scheduler's call: the
// worker-scoped plans aim at AnyWorker, and each ordinal is one some worker
// must reach — a split is 60 emits — landing on map and combine workers
// alike. Each plan runs under a roomy and two tiny ring configurations,
// which a session must ignore: it builds no ring on any of them.
func TestStreamFaultSweep(t *testing.T) {
	plans := []streamScenario{
		{name: "none", plan: faultinject.Plan{Kind: faultinject.None}},
		{name: "panic-map-emit", plan: faultinject.Plan{Kind: faultinject.PanicMapEmit, Worker: faultinject.AnyWorker, Nth: 40}},
		{name: "cancel-mid-split", plan: faultinject.Plan{Kind: faultinject.CancelMidMap, Worker: faultinject.AnyWorker, Nth: 30}},
	}
	for _, capacity := range []int{2, 4, 256} {
		for _, sc := range plans {
			sc.capacity = capacity
			sc.name = fmt.Sprintf("%s/cap=%d", sc.name, capacity)
			t.Run(sc.name, func(t *testing.T) { runStreamScenario(t, sc) })
		}
	}
}
