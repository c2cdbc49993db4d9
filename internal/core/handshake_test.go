package core

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"ramr/internal/mr"
	"ramr/internal/telemetry"
	"ramr/internal/topology"
)

// atProcs runs f at GOMAXPROCS 1 and 2: on one processor the two sides of
// a ring interleave only where one yields or parks, on two they overlap.
func atProcs(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f(t)
		})
	}
}

func sumValues(pairs []mr.Pair[int, int]) int {
	total := 0
	for _, p := range pairs {
		total += p.Value
	}
	return total
}

// TestHandshakeTinyRings drives whole runs through rings so small that
// both sides wait almost every step — producers park on full rings,
// combiners park on empty ones — with single-element batches and slabs
// that do not divide the ring. Totals must stay exact and every ring
// must conserve its elements. The runs are on a plan that ships pairs, so
// both sides really do park.
func TestHandshakeTinyRings(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		for _, capacity := range []int{2, 4} {
			for _, emit := range []int{1, 3} {
				splits, emits := 32, 120
				spec := countSpec(splits, emits, 13)
				cfg := parked(testConfig())
				cfg.Mappers = 4
				cfg.Combiners = 2
				cfg.TaskSize = 1
				cfg.QueueCapacity = capacity
				cfg.BatchSize = 1 + capacity/2
				cfg.EmitBatch = emit
				cfg.Telemetry = telemetry.New()
				rec := recordQueues(&cfg)
				var res *mr.Result[int, int]
				err := runWithTimeout(t, func() (err error) {
					res, err = Run(spec, cfg)
					return err
				})
				if err != nil {
					t.Fatalf("cap=%d emit=%d: %v", capacity, emit, err)
				}
				want := splits * emits
				if got := sumValues(res.Pairs); got != want {
					t.Fatalf("cap=%d emit=%d: total %d, want %d", capacity, emit, got, want)
				}
				conserved(t, res, want)
				if c := roleBooks(res.Telemetry, "combiner"); res.QueueStats.Pushes != uint64(want) || c.Tasks != 0 {
					t.Fatalf("cap=%d emit=%d: work was conserved on a sibling plan: %d of %d pairs pushed, combiners mapped %d tasks",
						capacity, emit, res.QueueStats.Pushes, want, c.Tasks)
				}
				if res.QueueStats.FailedPush == 0 {
					t.Fatalf("cap=%d emit=%d: no producer ever found its ring full", capacity, emit)
				}
				assertClean(t, rec)
			}
		}
	})
}

// TestHandshakeAbortWhileCombinersParked: mapper 1 stalls inside its first
// task before emitting anything, so its combiner has nothing to do and
// parks; mapper 0 then panics. The abort must reach the parked combiner,
// and the run must end as soon as the stalled task does, with every ring
// drained and no goroutine left behind.
func TestHandshakeAbortWhileCombinersParked(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		spec := panicSpec(2, 0)
		stalled, aborted := make(chan struct{}), make(chan struct{})
		inner := spec.Map
		spec.Map = func(s int, emit func(int, int)) {
			if s == 1 {
				close(stalled)
				<-aborted
			} else {
				<-stalled // panic only once the other mapper is inside its task
			}
			inner(s, emit)
		}
		cfg := testConfig()
		cfg.Mappers = 2
		cfg.Combiners = 2 // combiner j owns queue j
		cfg.TaskSize = 1
		// Two locality groups: parked pins mapper i to a core of socket i,
		// and task t lands in group t, so split 1 goes to mapper 1.
		cfg.Machine = topology.Fig3Example()
		cfg = parked(cfg)
		cfg.Steal = mr.StealOff
		rec := recordQueues(&cfg)
		cfg.Hooks.OnAbort = func() { close(aborted) }
		err := runWithTimeout(t, func() error {
			_, err := Run(spec, cfg)
			return err
		})
		var pe *mr.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("err = %v, want *mr.PanicError", err)
		}
		if n := len(rec.Reports()); n != cfg.Mappers {
			t.Fatalf("%d rings reported, want one per mapper", n)
		}
		assertClean(t, rec)
	})
}
