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
	"ramr/internal/topology"
)

// stealScenario is one seeded skewed-input configuration with chunked
// work stealing on: a multi-group machine, per-worker skew (group-0
// mappers are slowed, so the other group's mappers must cross the group
// boundary to drain the backlog) and a fault plan (possibly None)
// running against the same pipeline.
type stealScenario struct {
	cfg    mr.Config
	splits int
	emits  int
	// drag slows the mappers of locality group 0 per task, creating the
	// operation-level imbalance stealing exists to kill.
	drag time.Duration
}

func newStealScenario(seed int64) stealScenario {
	rng := rand.New(rand.NewSource(seed ^ 0x6a09e667f3bcc908))
	var sc stealScenario
	cfg := mr.DefaultConfig()
	cfg.Mappers = 4
	cfg.Combiners = 1 + rng.Intn(2)
	cfg.QueueCapacity = []int{16, 64, 256}[rng.Intn(3)]
	cfg.BatchSize = []int{4, 16, 64}[rng.Intn(3)]
	cfg.EmitBatch = []int{1, 8}[rng.Intn(2)]
	cfg.TaskSize = 1
	cfg.Wait = []spsc.WaitPolicy{spsc.WaitSleep, spsc.WaitBusy}[rng.Intn(2)]
	if rng.Intn(2) == 0 {
		cfg.Machine = topology.Fig3Example()
	} else {
		cfg.Machine = nonDenseMachine()
	}
	cfg.Pin = mr.PinNone // mapper i lands in group i % 2
	cfg.Steal = mr.StealChunked
	sc.cfg = cfg
	sc.splits = 24 + rng.Intn(17)
	sc.emits = 50 + rng.Intn(150)
	sc.drag = time.Duration(200+rng.Intn(300)) * time.Microsecond
	return sc
}

// runStealScenario executes one seeded skewed scenario and asserts the
// stealing invariants on top of the usual lifecycle contract: queue
// conservation and drain, no goroutine leaks, and — on clean runs —
// exact element conservation and balanced steal counters (every stolen
// task was executed remotely, none lost, none run twice). It returns how
// many tasks were stolen.
func runStealScenario(t *testing.T, seed int64) uint64 {
	t.Helper()
	sc := newStealScenario(seed)

	mapWorkers := sc.cfg.Mappers
	plan := faultinject.NewPlan(seed, mapWorkers, sc.cfg.Combiners)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := faultinject.NewInjector(plan, mapWorkers, sc.cfg.Combiners, cancel)

	spec := sweepSpec(sc.splits, sc.emits)
	spec.Combine = faultinject.WrapCombine(in, spec.Combine)
	spec.Reduce = faultinject.WrapReduce(in, spec.Reduce)
	hooks := in.Hooks()
	// Drag only the even (group-0) mappers: their deque backs up while
	// the odd mappers go idle and steal — the injector's own MapTask
	// fault still fires afterwards.
	innerTask := hooks.MapTask
	hooks.MapTask = func(w int) {
		if w%2 == 0 {
			time.Sleep(sc.drag)
		}
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
		t.Fatalf("steal churn %v: run wedged", plan)
	}

	fired := in.Fired()
	var stolen uint64
	switch {
	case err == nil:
		if fired && !(plan.Kind == faultinject.DelayMap || plan.Kind == faultinject.DelayCombine) {
			t.Fatalf("steal churn %v: fault fired but run reported success", plan)
		}
		total := 0
		for _, p := range res.Pairs {
			total += p.Value
		}
		if want := sc.splits * sc.emits; total != want {
			t.Fatalf("steal churn %v: total = %d, want %d", plan, total, want)
		}
		if !res.Steal.Balanced() {
			t.Fatalf("steal churn %v: steal counters unbalanced: %s", plan, res.Steal.String())
		}
		if got := res.Steal.TotalTasks() + res.Help.Tasks; got != uint64(sc.splits) {
			t.Fatalf("steal churn %v: takes cover %d tasks (%d by combiner slots), want %d", plan, got, res.Help.Tasks, sc.splits)
		}
		stolen = res.Steal.StolenTasks()
	case plan.Kind.IsPanic() && fired:
		var pe *mr.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("steal churn %v: injected panic surfaced as %T (%v)", plan, err, err)
		}
	case plan.Kind.IsCancel() && fired:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("steal churn %v: err = %v, want context.Canceled", plan, err)
		}
	default:
		t.Fatalf("steal churn %v: unexpected error with no fired fault: %v", plan, err)
	}

	reports := in.QueueReports()
	if len(reports) != sc.cfg.Mappers {
		t.Fatalf("steal churn %v: %d queue reports, want %d", plan, len(reports), sc.cfg.Mappers)
	}
	if qerr := faultinject.CheckQueues(reports); qerr != nil {
		t.Fatalf("steal churn %v: %v", plan, qerr)
	}
	if leaked := faultinject.AwaitNoWorkers(10 * time.Second); len(leaked) > 0 {
		t.Fatalf("steal churn %v: %d leaked worker goroutines:\n%s", plan, len(leaked), leaked[0])
	}
	return stolen
}

// TestStealChurnSweep drives seeded skewed inputs with chunked stealing
// on — alone and under injected panics, delays and cancellations — and
// asserts no element is ever lost or duplicated across a group-boundary
// steal, steal counters balance exactly on every clean run (mapper takes
// plus the tasks combiner slots ran cover the job), and no worker leaks
// even when a thief dies mid-batch. Across the sweep, some
// run must actually have stolen (an all-local sweep would be vacuous).
func TestStealChurnSweep(t *testing.T) {
	scenarios := int64(48)
	if testing.Short() {
		scenarios = 12
	}
	var totalStolen uint64
	for seed := int64(0); seed < scenarios; seed++ {
		totalStolen += runStealScenario(t, seed)
		if t.Failed() {
			return
		}
	}
	if totalStolen == 0 {
		t.Fatal("no task was stolen across the whole sweep")
	}
}

// TestStealChurnSeed replays one steal-churn scenario:
// RAMR_STEAL_SEED=17 go test -run TestStealChurnSeed ./internal/faultinject
func TestStealChurnSeed(t *testing.T) {
	s := os.Getenv("RAMR_STEAL_SEED")
	if s == "" {
		t.Skip("set RAMR_STEAL_SEED to replay one steal-churn scenario")
	}
	var seed int64
	if _, err := fmt.Sscan(s, &seed); err != nil {
		t.Fatalf("RAMR_STEAL_SEED=%q: %v", s, err)
	}
	runStealScenario(t, seed)
}
