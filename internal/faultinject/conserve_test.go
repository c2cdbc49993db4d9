package faultinject_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ramr/internal/core"
	"ramr/internal/faultinject"
	"ramr/internal/mr"
	"ramr/internal/topology"
)

// The work-conserving pipeline runs user code in two places it did not
// before: Map on a combiner slot's goroutine (an idle slot takes a task) and
// Combine on a mapper's (a slab its ring refused is folded in place). The
// scenarios below land a fault in each, and a cancellation and another
// worker's abort in the middle of a helped task. Every one must end the way
// any fault does: the typed error, every ring closed, drained and
// conserving, no worker goroutine left. They are built on 1+1 workers and
// steered with hooks and channels, not timing, so the fault lands where it
// is aimed on one processor and on two.

// conserveConfig is a 1+1 pipeline on one locality group, with a recorder
// for the queue reports. Map worker 0 is the mapper; a task the combiner
// slot runs reports as map worker 1.
func conserveConfig() (mr.Config, *faultinject.Recorder) {
	cfg := mr.DefaultConfig()
	cfg.Mappers, cfg.Combiners = 1, 1
	cfg.TaskSize = 1
	cfg.Machine = topology.Flat(4)
	cfg.Pin = mr.PinNone
	rec := &faultinject.Recorder{}
	cfg.Hooks = &mr.Hooks{QueueObserver: rec.Observer()}
	return cfg, rec
}

// within bounds a wait on a channel a correct run always closes, so a
// broken one fails its assertions instead of hanging the test binary.
func within(ch <-chan struct{}) {
	select {
	case <-ch:
	case <-time.After(20 * time.Second):
	}
}

// runConserve runs spec and asserts the lifecycle contract every ending
// shares; it returns the run's error for the scenario to judge.
func runConserve(t *testing.T, ctx context.Context, spec *mr.Spec[int, int, int, int], cfg mr.Config, rec *faultinject.Recorder) error {
	t.Helper()
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err = core.RunContext(ctx, spec, cfg)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("run wedged")
	}
	reports := rec.Reports()
	if len(reports) != cfg.Mappers {
		t.Fatalf("%d queue reports, want %d", len(reports), cfg.Mappers)
	}
	if qerr := faultinject.CheckQueues(reports); qerr != nil {
		t.Fatal(qerr)
	}
	if leaked := faultinject.AwaitNoWorkers(10 * time.Second); len(leaked) > 0 {
		t.Fatalf("%d leaked worker goroutines:\n%s", len(leaked), leaked[0])
	}
	return err
}

// holdMapper makes the mapper's first task wait (inside its MapTask hook)
// until release is closed: the mapper holds its first chunk, emits nothing,
// and the rest of the deque is the slot's.
func holdMapper(cfg *mr.Config, release <-chan struct{}) {
	var once sync.Once
	cfg.Hooks.MapTask = func(w int) {
		if w < cfg.Mappers {
			once.Do(func() { within(release) })
		}
	}
}

// TestConserveMapPanicOnCombinerSlot: Map panics in the middle of a task a
// combiner slot is running, with pairs staged in the slot's slab. The panic
// must surface as the slot's *mr.PanicError, the staged slab must never be
// folded (no Combine call sees its pairs), and the slot must still drain the
// ring its mapper goes on to fill.
func TestConserveMapPanicOnCombinerSlot(t *testing.T) {
	cfg, rec := conserveConfig()
	var combines atomic.Int64
	// 8 pairs a task, all on one key: under every slab and well under the
	// ring, and folding any two of them is a Combine call.
	spec := sweepSpec(40, 8)
	spec.Map = func(_ int, emit func(int, int)) {
		for e := 0; e < 8; e++ {
			emit(7, 1)
		}
	}
	spec.Combine = func(a, b int) int {
		combines.Add(1)
		return a + b
	}
	aborted := make(chan struct{})
	cfg.Hooks.OnAbort = func() { close(aborted) }
	// The mapper waits in its first task until the run is doomed; what it
	// then emits is discard-drained, never combined.
	holdMapper(&cfg, aborted)
	var slotEmits atomic.Int64
	cfg.Hooks.MapEmit = func(w int) {
		if w >= cfg.Mappers && slotEmits.Add(1) == 5 {
			panic("map exploded on the combiner slot")
		}
	}
	err := runConserve(t, context.Background(), spec, cfg, rec)
	var pe *mr.PanicError
	if !errors.As(err, &pe) || !strings.HasPrefix(pe.Worker, "combine worker") {
		t.Fatalf("err = %v, want the combiner slot's *mr.PanicError", err)
	}
	if n := combines.Load(); n != 0 {
		t.Fatalf("%d Combine calls: the slot's half-built slab was folded, or the doomed run kept combining", n)
	}
}

// TestConserveCombinePanicOnMapper: Combine panics inside a fold a mapper
// runs because its ring is full. The combiner slot is held until the run is
// doomed wherever it goes first — before its first batch's fold, or at the
// start of a task it took to help — so the 16-slot ring stays full, the
// mapper folds everything else it emits, and every Combine call up to the
// panic is the mapper's. The panic must surface as the mapper's
// *mr.PanicError and the mapper must still close its ring.
func TestConserveCombinePanicOnMapper(t *testing.T) {
	cfg, rec := conserveConfig()
	cfg.QueueCapacity = 16
	cfg.BatchSize = 4
	cfg.EmitBatch = 4
	spec := sweepSpec(4, 400) // 400 pairs over 350 keys: 34 folds onto a key already held, a task
	aborted := make(chan struct{})
	cfg.Hooks.OnAbort = func() { close(aborted) }
	var held sync.Once
	cfg.Hooks.CombineBatch = func(int) { held.Do(func() { within(aborted) }) }
	cfg.Hooks.MapTask = func(w int) {
		if w >= cfg.Mappers {
			within(aborted)
		}
	}
	var combines atomic.Int64
	spec.Combine = func(a, b int) int {
		if combines.Add(1) == 30 {
			panic("combine exploded in the mapper's fold")
		}
		return a + b
	}
	err := runConserve(t, context.Background(), spec, cfg, rec)
	var pe *mr.PanicError
	if !errors.As(err, &pe) || !strings.HasPrefix(pe.Worker, "map worker") {
		t.Fatalf("err = %v, want the mapper's *mr.PanicError", err)
	}
}

// TestConserveCancelMidHelp: the context is cancelled from inside a task a
// combiner slot is running. The slot finishes that task, takes no other,
// goes back to its rings and drains them; the run ends in ctx.Err().
func TestConserveCancelMidHelp(t *testing.T) {
	cfg, rec := conserveConfig()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelled := make(chan struct{})
	holdMapper(&cfg, cancelled)
	var slotTasks atomic.Int64
	var once sync.Once
	cfg.Hooks.MapEmit = func(w int) {
		if w >= cfg.Mappers {
			once.Do(func() {
				cancel()
				close(cancelled)
			})
		}
	}
	held := cfg.Hooks.MapTask
	cfg.Hooks.MapTask = func(w int) {
		if w >= cfg.Mappers {
			slotTasks.Add(1)
		}
		held(w)
	}
	err := runConserve(t, ctx, sweepSpec(40, 100), cfg, rec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := slotTasks.Load(); n != 1 {
		t.Fatalf("the slot began %d tasks; want the one it was in when the cancel landed", n)
	}
}

// TestConserveAbortMidHelp: the mapper panics while the combiner slot is in
// the middle of a helped task. The slot learns of the abort at the end of
// that task — it is not parked, so no wake-up reaches it — and must then
// discard-drain instead of helping on; the error is the mapper's.
func TestConserveAbortMidHelp(t *testing.T) {
	cfg, rec := conserveConfig()
	aborted, slotBusy := make(chan struct{}), make(chan struct{})
	cfg.Hooks.OnAbort = func() { close(aborted) }
	var slotTasks atomic.Int64
	cfg.Hooks.MapTask = func(w int) {
		if w < cfg.Mappers {
			within(slotBusy) // panic only once the slot is inside a task
			panic("mapper exploded while the slot was helping")
		}
		if slotTasks.Add(1) == 1 {
			close(slotBusy)
			within(aborted)
		}
	}
	err := runConserve(t, context.Background(), sweepSpec(40, 100), cfg, rec)
	var pe *mr.PanicError
	if !errors.As(err, &pe) || !strings.HasPrefix(pe.Worker, "map worker") {
		t.Fatalf("err = %v, want the mapper's *mr.PanicError", err)
	}
	if n := slotTasks.Load(); n != 1 {
		t.Fatalf("the slot began %d tasks; want only the one the abort found it in", n)
	}
}
