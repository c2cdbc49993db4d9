package faultinject_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ramr/internal/core"
	"ramr/internal/faultinject"
	"ramr/internal/mr"
	"ramr/internal/topology"
)

// A run that conserves work runs user code in two places the paper's
// pipeline does not: Map on a combine worker's goroutine (every worker
// maps) and Combine on a mapper's (every pair is folded where it is made).
// The scenarios below land a fault in each, and a cancellation and another
// worker's abort in the middle of a combine worker's task. Every one must
// end the way any fault does: the typed error, no worker goroutine left,
// and, since such a run builds no ring, no queue to report. They are built
// on 1+1 workers and steered with hooks and channels, not timing, so the
// fault lands where it is aimed on one processor and on two.

// conserveConfig is a 1+1 run on one locality group, with a recorder for
// the queue reports. Map worker 0 is the mapper; a task the combine worker
// runs reports as map worker 1.
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

// rings is the number of rings a RAMR run under cfg builds: one per mapper
// when its plan puts a combiner on an SMT sibling of one of its mappers, and
// none otherwise. It reads the plan's cores itself rather than asking the
// engine's predicate, so a run that picks the wrong arm fails the sweeps.
func rings(cfg mr.Config) int {
	m := cfg.ResolveMachine()
	plan := core.BuildPlanOn(m, cfg.CPUGrant, cfg.Mappers, cfg.NumCombiners(), cfg.Pin)
	cpus := m.CPUs()
	for j, rng := range core.QueueAssignment(cfg.Mappers, cfg.NumCombiners()) {
		for _, mc := range plan.MapperCPU[rng[0]:rng[1]] {
			if c := plan.CombinerCPU[j]; c >= 0 && mc >= 0 && c != mc && cpus[c].Core == cpus[mc].Core {
				return cfg.Mappers
			}
		}
	}
	return 0
}

// shipping moves cfg onto a plan that ships pairs: the paper's pinning over
// both SMT threads of the first core of each socket of the Fig. 3 machine,
// so combiner 0 shares a core with mapper 0 and the run is the paper's
// pipeline on any host (a pin on a CPU the host lacks is ignored).
func shipping(cfg mr.Config) mr.Config {
	cfg.Machine, cfg.Pin, cfg.CPUGrant = topology.Fig3Example(), mr.PinRAMR, []int{0, 8, 4, 12}
	return cfg
}

// checkBooks checks a clean RAMR run's books, read off its report (the run
// has a Config.Telemetry): every task's take booked, every pair through a
// ring or folded where it was emitted — combined but never popped — and
// nothing of the other arm's: a run without rings ships nothing, a pipeline
// run folds nothing in place and its combiners map no task.
func checkBooks(res *mr.Result[int, int], cfg mr.Config, tasks, pairs int) error {
	if res.Telemetry == nil {
		return fmt.Errorf("checkBooks reads the run's report: set Config.Telemetry")
	}
	tot, qs := res.Telemetry.Totals, res.QueueStats
	folded := tot.Combined - qs.Pops
	var combinerTasks uint64
	for _, w := range res.Telemetry.Workers {
		if w.Role == "combiner" {
			combinerTasks += w.Tasks
		}
	}
	switch {
	case res.Steal.TotalTasks() != uint64(tasks):
		return fmt.Errorf("takes cover %d tasks, want %d", res.Steal.TotalTasks(), tasks)
	case tot.Emitted != uint64(pairs) || qs.Pushes+folded != uint64(pairs) || qs.Pushes != qs.Pops:
		return fmt.Errorf("%d pairs emitted; queue stats %+v, report totals %+v", pairs, qs, tot)
	case rings(cfg) == 0 && qs != (mr.QueueStats{}):
		return fmt.Errorf("a run without rings booked ring traffic: %+v", qs)
	case rings(cfg) > 0 && (folded != 0 || combinerTasks != 0):
		return fmt.Errorf("a pipeline run conserved work: %d pairs folded in place, %d tasks mapped by combiners", folded, combinerTasks)
	}
	return nil
}

// checkWorker checks that a RAMR worker's panic names a worker of the run:
// "map worker i" for a mapper, "combine worker j" for a combiner. A panic in
// the merge or reduce phase is the phase's, not a worker's.
func checkWorker(pe *mr.PanicError, cfg mr.Config) error {
	if pe.Engine == "mr" {
		return nil
	}
	var i int
	if _, err := fmt.Sscanf(pe.Worker, "map worker %d", &i); err == nil && i >= 0 && i < cfg.Mappers {
		return nil
	}
	if _, err := fmt.Sscanf(pe.Worker, "combine worker %d", &i); err == nil && i >= 0 && i < cfg.NumCombiners() {
		return nil
	}
	return fmt.Errorf("panic from %q, not a worker of %d+%d", pe.Worker, cfg.Mappers, cfg.NumCombiners())
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
	if reports := rec.Reports(); len(reports) != 0 {
		t.Fatalf("%d queue reports from a run that builds no ring", len(reports))
	}
	var pe *mr.PanicError
	if errors.As(err, &pe) {
		if werr := checkWorker(pe, cfg); werr != nil {
			t.Fatal(werr)
		}
	}
	if leaked := faultinject.AwaitNoWorkers(10 * time.Second); len(leaked) > 0 {
		t.Fatalf("%d leaked worker goroutines:\n%s", len(leaked), leaked[0])
	}
	return err
}

// holdMapper makes the mapper's first task wait (inside its MapTask hook)
// until release is closed: the mapper holds its first task, emits nothing,
// and the rest of the deque is the combine worker's.
func holdMapper(cfg *mr.Config, release <-chan struct{}) {
	var once sync.Once
	cfg.Hooks.MapTask = func(w int) {
		if w < cfg.Mappers {
			once.Do(func() { within(release) })
		}
	}
}

// TestConserveMapPanicOnCombinerSlot: Map panics in the middle of a task a
// combine worker is running. The worker folds each pair as it emits it, so
// the four pairs before the panic are in its container and nothing after
// them is. The panic must surface as the combine worker's *mr.PanicError.
// The mapper, held in its first task until the run is doomed, finishes that
// task as any worker finishes the one it is in, and takes no other.
func TestConserveMapPanicOnCombinerSlot(t *testing.T) {
	cfg, rec := conserveConfig()
	var combines, atAbort, mapperTasks atomic.Int64
	// 8 pairs a task, all on one key: folding any pair after a task's first
	// is a Combine call.
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
	cfg.Hooks.OnAbort = func() {
		atAbort.Store(combines.Load())
		close(aborted)
	}
	holdMapper(&cfg, aborted)
	held := cfg.Hooks.MapTask
	cfg.Hooks.MapTask = func(w int) {
		if w < cfg.Mappers {
			mapperTasks.Add(1)
		}
		held(w)
	}
	var slotEmits atomic.Int64
	cfg.Hooks.MapEmit = func(w int) {
		if w >= cfg.Mappers && slotEmits.Add(1) == 5 {
			panic("map exploded on the combine worker")
		}
	}
	err := runConserve(t, context.Background(), spec, cfg, rec)
	var pe *mr.PanicError
	if !errors.As(err, &pe) || pe.Worker != "combine worker 0" {
		t.Fatalf("err = %v, want the combine worker's *mr.PanicError", err)
	}
	if n := atAbort.Load(); n != 3 {
		t.Fatalf("%d Combine calls when the run was doomed; want 3, the combine worker's four pairs before the panic", n)
	}
	if n, m := combines.Load(), mapperTasks.Load(); m > 1 || n != 3+7*m {
		t.Fatalf("%d Combine calls with %d mapper tasks begun; want 3 and the held task's 7, if the mapper had taken it", n, m)
	}
}

// TestConserveCombinePanicOnMapper: Combine panics inside the mapper's
// fused fold. The combine worker is held at the start of every task it
// takes until the run is doomed, so every Combine call up to the panic is
// the mapper's, folding what it emits where it emits it. The panic must
// surface as the mapper's *mr.PanicError.
func TestConserveCombinePanicOnMapper(t *testing.T) {
	cfg, rec := conserveConfig()
	spec := sweepSpec(4, 400) // 400 pairs over 350 keys: 50 folds onto a key already held, a task
	aborted := make(chan struct{})
	cfg.Hooks.OnAbort = func() { close(aborted) }
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
	if !errors.As(err, &pe) || pe.Worker != "map worker 0" {
		t.Fatalf("err = %v, want the mapper's *mr.PanicError", err)
	}
}

// TestConserveCancelMidHelp: the context is cancelled from inside a task a
// combine worker is running. The worker finishes that task and takes no
// other; the run ends in ctx.Err().
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
		t.Fatalf("the combine worker began %d tasks; want the one it was in when the cancel landed", n)
	}
}

// TestConserveAbortMidHelp: the mapper panics while the combine worker is
// in the middle of a task. The worker learns of the abort at the end of
// that task and must then take no other; the error is the mapper's.
func TestConserveAbortMidHelp(t *testing.T) {
	cfg, rec := conserveConfig()
	aborted, slotBusy := make(chan struct{}), make(chan struct{})
	cfg.Hooks.OnAbort = func() { close(aborted) }
	var slotTasks atomic.Int64
	cfg.Hooks.MapTask = func(w int) {
		if w < cfg.Mappers {
			within(slotBusy) // panic only once the slot is inside a task
			panic("mapper exploded while the combine worker was mapping")
		}
		if slotTasks.Add(1) == 1 {
			close(slotBusy)
			within(aborted)
		}
	}
	err := runConserve(t, context.Background(), sweepSpec(40, 100), cfg, rec)
	var pe *mr.PanicError
	if !errors.As(err, &pe) || pe.Worker != "map worker 0" {
		t.Fatalf("err = %v, want the mapper's *mr.PanicError", err)
	}
	if n := slotTasks.Load(); n != 1 {
		t.Fatalf("the combine worker began %d tasks; want only the one the abort found it in", n)
	}
}
