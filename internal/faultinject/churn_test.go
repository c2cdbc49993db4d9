package faultinject_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"ramr/internal/core"
	"ramr/internal/faultinject"
	"ramr/internal/mr"
	"ramr/internal/spsc"
	"ramr/internal/telemetry"
	"ramr/internal/topology"
	"ramr/internal/tuner"
)

// churnScenario is one seeded elastic-pool configuration: a scripted
// grow/shrink schedule replayed at high epoch rate while a fault plan
// (possibly None) runs against the same pipeline.
type churnScenario struct {
	cfg    mr.Config
	maxC   int
	splits int
	emits  int
	// stretch is the per-task sleep that keeps the map phase alive long
	// enough for the schedule to churn ownership mid-run.
	stretch time.Duration
}

func newChurnScenario(seed int64) churnScenario {
	rng := rand.New(rand.NewSource(seed ^ 0x7f4a7c159e3779b9))
	var sc churnScenario
	cfg := mr.DefaultConfig()
	cfg.Mappers = 2 + rng.Intn(3) // 2..4
	cfg.Combiners = 1 + rng.Intn(cfg.Mappers)
	cfg.QueueCapacity = []int{16, 64, 256}[rng.Intn(3)]
	cfg.BatchSize = []int{4, 16, 64}[rng.Intn(3)]
	cfg.EmitBatch = []int{1, 8, 64}[rng.Intn(3)]
	cfg.TaskSize = 1
	cfg.Wait = []spsc.WaitPolicy{spsc.WaitSleep, spsc.WaitBusy}[rng.Intn(2)]
	switch rng.Intn(3) {
	case 0:
		cfg.Machine = topology.Flat(4)
	case 1:
		cfg.Machine = topology.Fig3Example()
	default:
		cfg.Machine = nonDenseMachine()
	}
	cfg.Pin = mr.PinNone
	cfg.Telemetry = telemetry.New()
	cfg.Telemetry.Interval = 40 * time.Microsecond

	sc.maxC = cfg.Mappers
	sched := make([]int, 5+rng.Intn(8))
	for i := range sched {
		sched[i] = 1 + rng.Intn(sc.maxC)
	}
	cfg.Tuner = &tuner.Config{
		EpochTicks:   1,
		MaxCombiners: sc.maxC,
		Schedule:     sched,
	}
	sc.cfg = cfg
	sc.splits = 8 + rng.Intn(9)
	sc.emits = 100 + rng.Intn(300)
	sc.stretch = time.Duration(100+rng.Intn(200)) * time.Microsecond
	return sc
}

// runChurnScenario executes one seeded churn scenario on the RAMR engine
// and asserts the elastic-pool invariants on top of the usual lifecycle
// contract: exactly-one-consumer-per-ring (the engine's CAS guards are
// armed because Hooks is set — any overlap surfaces as a run error),
// queue conservation and drain, no goroutine leaks, and pool sizes inside
// the configured bounds. It returns how many scripted resizes fired.
func runChurnScenario(t *testing.T, seed int64) int {
	t.Helper()
	sc := newChurnScenario(seed)

	mapWorkers := sc.cfg.Mappers
	plan := faultinject.NewPlan(seed, mapWorkers, sc.maxC)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := faultinject.NewInjector(plan, mapWorkers, sc.maxC, cancel)

	spec := sweepSpec(sc.splits, sc.emits)
	spec.Combine = faultinject.WrapCombine(in, spec.Combine)
	spec.Reduce = faultinject.WrapReduce(in, spec.Reduce)
	hooks := in.Hooks()
	// Stretch every map task so the run spans many controller epochs; the
	// injector's own MapTask fault still fires afterwards.
	innerTask := hooks.MapTask
	hooks.MapTask = func(w int) {
		time.Sleep(sc.stretch)
		if innerTask != nil {
			innerTask(w)
		}
	}
	sc.cfg.Hooks = hooks

	var res *mr.Result[int, int]
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, err = core.RunContext(ctx, spec, sc.cfg)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("churn %v: run wedged", plan)
	}

	fired := in.Fired()
	resizes := 0
	switch {
	case err == nil:
		if fired && !(plan.Kind == faultinject.DelayMap || plan.Kind == faultinject.DelayCombine) {
			t.Fatalf("churn %v: fault fired but run reported success", plan)
		}
		total := 0
		for _, p := range res.Pairs {
			total += p.Value
		}
		if want := sc.splits * sc.emits; total != want {
			t.Fatalf("churn %v: total = %d, want %d", plan, total, want)
		}
		rep := res.TunerReport
		if rep == nil {
			t.Fatalf("churn %v: tuned run attached no TunerReport", plan)
		}
		for _, d := range rep.Epochs {
			if d.Settings.Combiners < 1 || d.Settings.Combiners > sc.maxC {
				t.Fatalf("churn %v: pool size out of bounds: %+v", plan, d)
			}
			if d.Action == "schedule" {
				resizes++
			}
		}
	case plan.Kind.IsPanic() && fired:
		var pe *mr.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("churn %v: injected panic surfaced as %T (%v)", plan, err, err)
		}
	case plan.Kind.IsCancel() && fired:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("churn %v: err = %v, want context.Canceled", plan, err)
		}
	default:
		// A guard violation (or any other engine-detected invariant
		// break) lands here: no fault fired but the run errored.
		t.Fatalf("churn %v: unexpected error with no fired fault: %v", plan, err)
	}

	reports := in.QueueReports()
	if len(reports) != sc.cfg.Mappers {
		t.Fatalf("churn %v: %d queue reports, want %d", plan, len(reports), sc.cfg.Mappers)
	}
	if qerr := faultinject.CheckQueues(reports); qerr != nil {
		t.Fatalf("churn %v: %v", plan, qerr)
	}
	if leaked := faultinject.AwaitNoWorkers(10 * time.Second); len(leaked) > 0 {
		t.Fatalf("churn %v: %d leaked worker goroutines:\n%s", plan, len(leaked), leaked[0])
	}
	return resizes
}

// TestChurnSweep drives seeded combiner grow/shrink schedules — alone and
// under injected panics, delays and cancellations — and asserts the
// elastic pool never violates the one-consumer-per-ring invariant, never
// loses or duplicates an element, and never leaks a worker. Across the
// sweep, scripted resizes must actually have fired mid-run (a sweep where
// no schedule step landed would be vacuous).
func TestChurnSweep(t *testing.T) {
	scenarios := int64(80)
	if testing.Short() {
		scenarios = 16
	}
	totalResizes := 0
	for seed := int64(0); seed < scenarios; seed++ {
		totalResizes += runChurnScenario(t, seed)
		if t.Failed() {
			return
		}
	}
	if totalResizes == 0 {
		t.Fatal("no scripted resize fired across the whole sweep")
	}
}

// TestChurnSeed replays one churn scenario:
// RAMR_CHURN_SEED=17 go test -run TestChurnSeed ./internal/faultinject
func TestChurnSeed(t *testing.T) {
	s := os.Getenv("RAMR_CHURN_SEED")
	if s == "" {
		t.Skip("set RAMR_CHURN_SEED to replay one churn scenario")
	}
	var seed int64
	if _, err := fmt.Sscan(s, &seed); err != nil {
		t.Fatalf("RAMR_CHURN_SEED=%q: %v", s, err)
	}
	runChurnScenario(t, seed)
}
