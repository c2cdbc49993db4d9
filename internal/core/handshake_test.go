package core

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"ramr/internal/mr"
	"ramr/internal/topology"
	"ramr/internal/tuner"
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
// must conserve its elements. The static pool runs under a grant too small
// to conserve work, so both sides really do park. The elastic pool cannot
// (a grant that small also pins it at one combiner): it is resized while
// its slots are mapping and its mappers are folding what the rings refuse,
// and what must hold there is the books.
func TestHandshakeTinyRings(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		for _, capacity := range []int{2, 4} {
			for _, emit := range []int{1, 3} {
				for _, elastic := range []bool{false, true} {
					splits, emits := 32, 120
					if elastic {
						splits, emits = 48, 1500
					}
					spec := countSpec(splits, emits, 13)
					cfg := testConfig()
					if !elastic {
						cfg = parked(cfg)
					}
					cfg.Mappers = 4
					cfg.Combiners = 2
					cfg.TaskSize = 1
					cfg.QueueCapacity = capacity
					cfg.BatchSize = 1 + capacity/2
					cfg.EmitBatch = emit
					if elastic {
						cfg.Tuner = &tuner.Config{EpochTicks: 1, MaxCombiners: 4, Schedule: []int{4, 1, 3, 1, 4, 2}}
					}
					rec := recordQueues(&cfg)
					if elastic {
						// Nobody waits on a ring here, so the run has to be
						// held open for the resizes some other way.
						cfg.Hooks.MapTask = func(int) { time.Sleep(200 * time.Microsecond) }
					}
					var res *mr.Result[int, int]
					err := runWithTimeout(t, func() (err error) {
						res, err = Run(spec, cfg)
						return err
					})
					if err != nil {
						t.Fatalf("cap=%d emit=%d elastic=%v: %v", capacity, emit, elastic, err)
					}
					want := splits * emits
					if got := sumValues(res.Pairs); got != want {
						t.Fatalf("cap=%d emit=%d elastic=%v: total %d, want %d", capacity, emit, elastic, got, want)
					}
					conserved(t, res, want)
					if !elastic && res.Help != (mr.HelpStats{}) {
						t.Fatalf("cap=%d emit=%d: work was conserved under a one-CPU grant: %+v", capacity, emit, res.Help)
					}
					if res.QueueStats.FailedPush == 0 {
						t.Fatalf("cap=%d emit=%d elastic=%v: no producer ever found its ring full", capacity, emit, elastic)
					}
					if elastic {
						resizes := 0
						for _, d := range res.TunerReport.Epochs {
							if d.Action == "schedule" {
								resizes++
							}
						}
						if resizes < 2 {
							t.Fatalf("cap=%d emit=%d: only %d resizes landed mid-run", capacity, emit, resizes)
						}
					}
					assertClean(t, rec)
				}
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
		cfg := parked(testConfig())
		cfg.Mappers = 2
		cfg.Combiners = 2 // combiner j owns queue j
		cfg.TaskSize = 1
		// Two locality groups: with PinNone mapper i draws from group i
		// and task t lands in group t%2, so split 1 goes to mapper 1.
		cfg.Machine = topology.Fig3Example()
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
		assertClean(t, rec)
	})
}
