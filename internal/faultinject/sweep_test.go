package faultinject_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"ramr/internal/container"
	"ramr/internal/core"
	"ramr/internal/faultinject"
	"ramr/internal/mr"
	"ramr/internal/obs"
	"ramr/internal/telemetry"
	"ramr/internal/topology"
)

// sweepKeys is sized so the PanicReduce ordinals (Nth <= 300) usually
// land inside the reduce phase's key range.
const sweepKeys = 350

// sweepSpec builds the sweep's job: splits emitting `emits` pairs each
// over sweepKeys keys, with a serially computable total.
func sweepSpec(splits, emits int) *mr.Spec[int, int, int, int] {
	in := make([]int, splits)
	for i := range in {
		in[i] = i
	}
	return &mr.Spec[int, int, int, int]{
		Name:   "sweep",
		Splits: in,
		Map: func(s int, emit func(int, int)) {
			for e := 0; e < emits; e++ {
				emit((s*emits+e)%sweepKeys, 1)
			}
		},
		Combine:      func(a, b int) int { return a + b },
		Reduce:       mr.IdentityReduce[int, int](),
		NewContainer: func() container.Container[int, int] { return container.NewFixedArray[int](sweepKeys) },
		Less:         func(a, b int) bool { return a < b },
	}
}

// nonDenseMachine models firmware that numbers its two packages 0 and 2 —
// the locality-group regression surface.
func nonDenseMachine() *topology.Machine {
	return &topology.Machine{
		Name:           "non-dense",
		Sockets:        2,
		CoresPerSocket: 2,
		ThreadsPerCore: 1,
		Enum:           topology.EnumCompact,
		SocketIDs:      []int{0, 2},
		Caches: []topology.CacheLevel{
			{Level: 1, SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8, Scope: topology.ScopePerCore, LatencyCycles: 4},
		},
		MemLatencyCycles: 200,
	}
}

// scenario is one seeded configuration + fault plan for one engine.
type scenario struct {
	engine string // "ramr" | "phoenix"
	cfg    mr.Config
	splits int
	emits  int
}

// newScenario derives the run shape from seed. The plan itself is derived
// separately (from the raw seed) once the worker counts are known.
func newScenario(seed int64) scenario {
	rng := rand.New(rand.NewSource(seed ^ 0x5e3779b97f4a7c15))
	var sc scenario
	if rng.Intn(2) == 0 {
		sc.engine = "ramr"
	} else {
		sc.engine = "phoenix"
	}
	cfg := mr.DefaultConfig()
	cfg.Mappers = 1 + rng.Intn(4)
	cfg.Combiners = 1 + rng.Intn(cfg.Mappers)
	cfg.QueueCapacity = []int{8, 64, 512}[rng.Intn(3)]
	cfg.BatchSize = []int{4, 16, 64}[rng.Intn(3)]
	cfg.EmitBatch = []int{1, 8, 64}[rng.Intn(3)]
	cfg.TaskSize = 1 + rng.Intn(4)
	switch rng.Intn(3) {
	case 0:
		cfg.Machine = topology.Flat(4)
	case 1:
		cfg.Machine = topology.Fig3Example()
	default:
		cfg.Machine = nonDenseMachine()
	}
	if rng.Intn(3) == 0 {
		cfg.Pin = mr.PinRAMR // plans may target CPUs the host lacks: must degrade gracefully
	} else {
		cfg.Pin = mr.PinNone
	}
	sc.cfg = cfg
	sc.splits = 4 + rng.Intn(13)
	sc.emits = 100 + rng.Intn(300)
	// Half the runs move to a plan that ships pairs (drawn last, so every
	// other draw is what it was for the seed). Only there does a RAMR run
	// ship pairs through its rings and fold batches, which is where the
	// combiner-side faults land; elsewhere it folds every pair where it is
	// emitted. Phoenix++ never ships: it runs a fused pool on the grant.
	if rng.Intn(2) == 0 {
		sc.cfg = shipping(sc.cfg)
	}
	return sc
}

// runScenario executes one seeded scenario and asserts every lifecycle
// invariant. Any violation is reported with the plan so the seed alone
// reproduces it. It reports whether a fault fired in a RAMR batch fold.
func runScenario(t *testing.T, seed int64) (batchFault bool) {
	t.Helper()
	sc := newScenario(seed)

	// Map-side hooks fire on up to mappers+combiners workers on both
	// engines: Phoenix++ runs that many fused workers, as far as its grant
	// reaches, and so does a RAMR run that ships nothing, whose combine
	// worker j maps as worker mappers+j. There the engine, not the plan,
	// decides who maps what, so map-side faults aim at whichever worker
	// gets to the ordinal first.
	combWorkers := sc.cfg.NumCombiners()
	mapWorkers := sc.cfg.Mappers + combWorkers
	plan := faultinject.NewPlan(seed, mapWorkers, combWorkers)
	if sc.engine == "ramr" {
		switch plan.Kind {
		case faultinject.PanicMapTask, faultinject.PanicMapEmit, faultinject.DelayMap, faultinject.CancelMidMap:
			plan.Worker = faultinject.AnyWorker
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := faultinject.NewInjector(plan, mapWorkers, combWorkers, cancel)

	spec := sweepSpec(sc.splits, sc.emits)
	spec.Combine = faultinject.WrapCombine(in, spec.Combine)
	spec.Reduce = faultinject.WrapReduce(in, spec.Reduce)
	hooks := in.Hooks()
	started := make([]atomic.Int64, mapWorkers) // map tasks begun, per worker
	planted := hooks.MapTask
	hooks.MapTask = func(w int) {
		started[w].Add(1)
		planted(w)
	}
	sc.cfg.Hooks = hooks
	sc.cfg.Telemetry = telemetry.New()
	timeline := obs.New("")
	sc.cfg.Trace = timeline

	var res *mr.Result[int, int]
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		if sc.engine == "ramr" {
			res, err = core.RunContext(ctx, spec, sc.cfg)
		} else {
			res, err = core.RunPhoenixContext(ctx, spec, sc.cfg)
		}
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("%s %v: run wedged", sc.engine, plan)
	}

	fired := in.Fired()
	switch {
	case err == nil:
		// Fault-free outcome (the fault never triggered, or was a pure
		// delay): the result must be exactly right.
		if fired && !(plan.Kind == faultinject.DelayMap || plan.Kind == faultinject.DelayCombine) {
			t.Fatalf("%s %v: fault fired but run reported success", sc.engine, plan)
		}
		total := 0
		for _, p := range res.Pairs {
			total += p.Value
		}
		if want := sc.splits * sc.emits; total != want {
			t.Fatalf("%s %v: total = %d, want %d", sc.engine, plan, total, want)
		}
		// The books of a clean RAMR run: every task's take booked, and
		// every pair through a ring or folded where it was emitted.
		if sc.engine == "ramr" {
			if berr := checkBooks(res, sc.cfg, len(mr.Tasks(sc.splits, sc.cfg.TaskSize)), sc.splits*sc.emits); berr != nil {
				t.Fatalf("%s %v: %v", sc.engine, plan, berr)
			}
		}
	case plan.Kind.IsPanic() && fired:
		var pe *mr.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("%s %v: injected panic surfaced as %T (%v), want *mr.PanicError", sc.engine, plan, err, err)
		}
		if sc.engine == "ramr" {
			if werr := checkWorker(pe, sc.cfg); werr != nil {
				t.Fatalf("%s %v: %v", sc.engine, plan, werr)
			}
		}
	case plan.Kind.IsCancel() && fired:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s %v: err = %v, want context.Canceled", sc.engine, plan, err)
		}
	default:
		t.Fatalf("%s %v: unexpected error with no fired fault: %v", sc.engine, plan, err)
	}
	if fired && plan.Kind.IsCancel() && err == nil {
		t.Fatalf("%s %v: fired cancellation not reflected in run error", sc.engine, plan)
	}

	if sc.engine == "ramr" {
		reports := in.QueueReports()
		if len(reports) != rings(sc.cfg) {
			t.Fatalf("%s %v: %d queue reports, want %d", sc.engine, plan, len(reports), rings(sc.cfg))
		}
		if qerr := faultinject.CheckQueues(reports); qerr != nil {
			t.Fatalf("%s %v: %v", sc.engine, plan, qerr)
		}
	}

	if leaked := faultinject.AwaitNoWorkers(10 * time.Second); len(leaked) > 0 {
		t.Fatalf("%s %v: %d leaked worker goroutines:\n%s", sc.engine, plan, len(leaked), leaked[0])
	}

	// However the run ended, every worker published its lane on the way
	// out: each map task begun has its span, bar the one per worker a fault
	// may have cut short, and the document still exports. A combine
	// worker's tasks are on its own lane.
	laneOf := func(w int) string {
		if w < sc.cfg.Mappers {
			return fmt.Sprintf("mapper-%d", w)
		}
		return fmt.Sprintf("combiner-%d", w-sc.cfg.Mappers)
	}
	spans := map[string]int{}
	for _, e := range timeline.Events() {
		if e.Name == "task" {
			spans[e.Track]++
		}
	}
	for w := range started {
		n, got := int(started[w].Load()), spans[laneOf(w)]
		if got > n || got < n-1 || (err == nil && got != n) {
			t.Fatalf("%s %v (err %v): %s began %d tasks, its lane has %d task spans", sc.engine, plan, err, laneOf(w), n, got)
		}
	}
	var buf bytes.Buffer
	var doc []map[string]any
	if werr := timeline.WriteChromeTrace(&buf); werr != nil {
		t.Fatalf("%s %v: exporting the trace: %v", sc.engine, plan, werr)
	}
	if jerr := json.Unmarshal(buf.Bytes(), &doc); jerr != nil {
		t.Fatalf("%s %v: trace is not a JSON array: %v", sc.engine, plan, jerr)
	}
	return sc.engine == "ramr" && fired && (plan.Kind == faultinject.PanicCombineBatch || plan.Kind == faultinject.DelayCombine)
}

// TestFaultSweep drives hundreds of seeded panic/delay/cancel scenarios
// through both engines and asserts, after every run: the fault surfaced
// as an ordinary error (never a process panic), every queue drained with
// Pushes == Pops, and no worker goroutine leaked. Across the sweep some
// fault must have landed in a RAMR batch fold, which only the runs on a
// plan that ships pairs do. A failing seed reproduces standalone via TestFaultSeed
// (RAMR_FAULT_SEED).
func TestFaultSweep(t *testing.T) {
	scenarios := int64(240)
	if testing.Short() {
		scenarios = 40
	}
	batchFaults := 0
	for seed := int64(0); seed < scenarios; seed++ {
		if runScenario(t, seed) {
			batchFaults++
		}
		if t.Failed() {
			return
		}
	}
	t.Logf("%d of %d scenarios fired a fault in a RAMR batch fold", batchFaults, scenarios)
	if batchFaults == 0 {
		t.Fatal("no fault fired in a RAMR batch fold across the whole sweep")
	}
}

// TestFaultSeed replays a single scenario: RAMR_FAULT_SEED=17 go test
// -run TestFaultSeed ./internal/faultinject
func TestFaultSeed(t *testing.T) {
	s := os.Getenv("RAMR_FAULT_SEED")
	if s == "" {
		t.Skip("set RAMR_FAULT_SEED to replay one sweep scenario")
	}
	var seed int64
	if _, err := fmt.Sscan(s, &seed); err != nil {
		t.Fatalf("RAMR_FAULT_SEED=%q: %v", s, err)
	}
	runScenario(t, seed)
}
