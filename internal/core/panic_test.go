package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ramr/internal/container"
	"ramr/internal/faultinject"
	"ramr/internal/mr"
	"ramr/internal/topology"
)

// recordQueues attaches a queue-report recorder to cfg so tests can
// assert the drain and conservation invariants after failed runs.
func recordQueues(cfg *mr.Config) *faultinject.Recorder {
	rec := &faultinject.Recorder{}
	if cfg.Hooks == nil {
		cfg.Hooks = &mr.Hooks{}
	}
	cfg.Hooks.QueueObserver = rec.Observer()
	return rec
}

// assertClean asserts the post-run lifecycle invariants: every queue
// drained and element-conserving, and no worker goroutine left behind.
func assertClean(t *testing.T, rec *faultinject.Recorder) {
	t.Helper()
	if err := faultinject.CheckQueues(rec.Reports()); err != nil {
		t.Fatal(err)
	}
	assertNoWorkers(t)
}

// assertNoWorkers asserts that no worker goroutine outlives the run.
func assertNoWorkers(t *testing.T) {
	t.Helper()
	if leaked := faultinject.AwaitNoWorkers(10 * time.Second); len(leaked) > 0 {
		t.Fatalf("%d leaked worker goroutines:\n%s", len(leaked), leaked[0])
	}
}

// panicSpec builds a job whose Map panics on one split.
func panicSpec(splits int, panicAt int) *mr.Spec[int, int, int, int] {
	in := make([]int, splits)
	for i := range in {
		in[i] = i
	}
	return &mr.Spec[int, int, int, int]{
		Name:   "panic",
		Splits: in,
		Map: func(s int, emit func(int, int)) {
			if s == panicAt {
				panic("map exploded")
			}
			for e := 0; e < 100; e++ {
				emit(e%7, 1)
			}
		},
		Combine:      func(a, b int) int { return a + b },
		Reduce:       mr.IdentityReduce[int, int](),
		NewContainer: func() container.Container[int, int] { return container.NewFixedArray[int](7) },
	}
}

// runWithTimeout guards against the pre-recovery failure mode: a panicking
// worker deadlocking the pipeline.
func runWithTimeout(t *testing.T, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("run deadlocked")
		return nil
	}
}

func TestMapPanicBecomesError(t *testing.T) {
	cfg := testConfig()
	cfg.QueueCapacity = 16 // small ring: other mappers are likely blocked mid-push
	rec := recordQueues(&cfg)
	err := runWithTimeout(t, func() error {
		_, err := Run(panicSpec(200, 57), cfg)
		return err
	})
	if err == nil {
		t.Fatal("map panic not reported")
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("unexpected error: %v", err)
	}
	var pe *mr.PanicError
	if !errors.As(err, &pe) || pe.Engine != "ramr" {
		t.Fatalf("err = %#v, want *mr.PanicError from ramr", err)
	}
	assertClean(t, rec)
}

func TestCombinePanicBecomesError(t *testing.T) {
	spec := panicSpec(200, -1) // map never panics
	var calls atomic.Int64
	spec.Combine = func(a, b int) int {
		if calls.Add(1) == 500 {
			panic("combine exploded")
		}
		return a + b
	}
	cfg := parked(testConfig()) // every pair reaches the combiner
	cfg.Mappers = 2
	cfg.Combiners = 1 // the single combiner owns all queues; its recovery must drain them
	cfg.QueueCapacity = 16
	rec := recordQueues(&cfg)
	err := runWithTimeout(t, func() error {
		_, err := Run(spec, cfg)
		return err
	})
	var pe *mr.PanicError
	if !errors.As(err, &pe) || pe.Worker != "combine worker 0" {
		t.Fatalf("err = %v, want the combiner's *mr.PanicError", err)
	}
	if len(rec.Reports()) != 2 {
		t.Fatalf("%d queue reports, want 2", len(rec.Reports()))
	}
	assertClean(t, rec)
}

// TestFixedHashOverflowBecomesError: a fixed-hash container folded past
// its declared keys panics where the pair is folded — in a fused worker's
// fold, or in a combiner slot's batch on a sibling plan — and the run
// returns that worker's *mr.PanicError, carrying the overflow, on RAMR and
// on Phoenix++.
func TestFixedHashOverflowBecomesError(t *testing.T) {
	spec := countSpec(20, 50, 64) // 50 distinct keys a task, 16 declared
	spec.NewContainer = func() container.Container[int, int] { return container.NewFixedHash[int, int](16, container.HashInt) }
	for _, tc := range []struct {
		name    string
		cfg     mr.Config
		phoenix bool
	}{
		{"ramr", testConfig(), false},
		{"ramr-sibling-plan", parked(testConfig()), false},
		{"phoenix", testConfig(), true},
	} {
		err := runWithTimeout(t, func() error {
			_, err := run(context.Background(), spec, tc.cfg, tc.phoenix)
			return err
		})
		var pe *mr.PanicError
		if !errors.As(err, &pe) || pe.Engine == "mr" || !strings.Contains(fmt.Sprint(pe.Value), "FixedHash overflow") {
			t.Fatalf("%s: err = %#v, want a worker's *mr.PanicError on the overflow", tc.name, err)
		}
		assertNoWorkers(t)
	}
}

func TestReducePanicBecomesError(t *testing.T) {
	spec := panicSpec(50, -1)
	spec.Reduce = func(k, v int) int { panic("reduce exploded") }
	cfg := testConfig()
	rec := recordQueues(&cfg)
	err := runWithTimeout(t, func() error {
		_, err := Run(spec, cfg)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "reduce") {
		t.Fatalf("reduce panic not reported: %v", err)
	}
	assertClean(t, rec)
}

// TestLessPanicBecomesError: a panicking Less in the final sort is the
// run's *mr.PanicError on both engines, whether the output is small enough
// to sort on the caller's goroutine or large enough to sort and merge on
// goroutines of its own.
func TestLessPanicBecomesError(t *testing.T) {
	for _, keys := range []int{20, 20_000} {
		for _, phoenix := range []bool{false, true} {
			spec := countSpec(keys/10, 10, keys)
			spec.Less = func(a, b int) bool { panic("less exploded") }
			err := runWithTimeout(t, func() error {
				_, err := run(context.Background(), spec, testConfig(), phoenix)
				return err
			})
			var pe *mr.PanicError
			if !errors.As(err, &pe) || pe.Engine != "mr" || pe.Worker != "merge" {
				t.Fatalf("keys=%d phoenix=%v: err = %#v, want the merge's *mr.PanicError", keys, phoenix, err)
			}
			assertNoWorkers(t)
		}
	}
}

func TestPanicWithPinnedWorkers(t *testing.T) {
	cfg := testConfig()
	cfg.Pin = mr.PinRAMR
	cfg.Machine = topology.HaswellServer()
	rec := recordQueues(&cfg)
	err := runWithTimeout(t, func() error {
		_, err := Run(panicSpec(100, 3), cfg)
		return err
	})
	if err == nil {
		t.Fatal("panic not reported under pinning")
	}
	assertClean(t, rec)
}

// TestMapPanicDiscardsStagedSlab is the half-built-slab regression: a Map
// that panics mid-task leaves pairs staged in the producer-local emit slab,
// and the mapper's exit path must NOT publish them — the run is doomed and
// those pairs must never reach user Combine. With one split emitting fewer
// pairs than the slab size, nothing legitimately flushes, so any push at
// all is the bug. Only a lane with a ring stages pairs, so the run is on a
// plan that ships pairs.
func TestMapPanicDiscardsStagedSlab(t *testing.T) {
	spec := &mr.Spec[int, int, int, int]{
		Name:   "slab-panic",
		Splits: []int{0},
		Map: func(s int, emit func(int, int)) {
			for e := 0; e < 5; e++ {
				emit(e, 1)
			}
			panic("map exploded after staging")
		},
		Combine:      func(a, b int) int { return a + b },
		Reduce:       mr.IdentityReduce[int, int](),
		NewContainer: func() container.Container[int, int] { return container.NewFixedArray[int](8) },
	}
	cfg := parked(testConfig())
	cfg.Mappers = 1
	cfg.Combiners = 1
	cfg.EmitBatch = 64 // slab far larger than the 5 staged pairs
	rec := recordQueues(&cfg)
	err := runWithTimeout(t, func() error {
		_, err := Run(spec, cfg)
		return err
	})
	var pe *mr.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *mr.PanicError", err)
	}
	reports := rec.Reports()
	if len(reports) != 1 {
		t.Fatalf("%d queue reports, want 1", len(reports))
	}
	if got := reports[0].Stats.Pushes; got != 0 {
		t.Fatalf("panicked mapper published %d staged pairs; the half-built slab must be discarded", got)
	}
	assertClean(t, rec)
}

// TestAbortStopsHealthyCombiners is the doomed-run combine regression:
// after one combiner panics, the surviving combiner must stop feeding user
// Combine and switch to drain-and-discard. Combiner 1 is held in its batch
// hook until the abort flag is raised, so before the fix it then combined
// its producer's entire remaining stream (~60k calls); after the fix it
// finishes only the in-flight batch.
func TestAbortStopsHealthyCombiners(t *testing.T) {
	const emits = 60_000
	var combineCalls atomic.Int64
	spec := &mr.Spec[int, int, int, int]{
		Name:   "abort-combine",
		Splits: []int{0, 1},
		Map: func(s int, emit func(int, int)) {
			for e := 0; e < emits; e++ {
				emit(e%7, 1)
			}
		},
		Combine: func(a, b int) int {
			combineCalls.Add(1)
			return a + b
		},
		Reduce:       mr.IdentityReduce[int, int](),
		NewContainer: func() container.Container[int, int] { return container.NewFixedArray[int](7) },
	}
	cfg := testConfig()
	cfg.Mappers = 2
	cfg.Combiners = 2 // combiner j owns queue j
	cfg.TaskSize = 1
	cfg.QueueCapacity = 128
	cfg.BatchSize = 64
	// Two locality groups: parked pins mapper i to a core of socket i, and
	// task t lands in group t — each mapper deterministically feeds its own
	// combiner.
	cfg.Machine = topology.Fig3Example()
	cfg = parked(cfg) // every pair reaches a combiner's batch hook
	rec := recordQueues(&cfg)
	aborted := make(chan struct{})
	cfg.Hooks.OnAbort = func() { close(aborted) }
	cfg.Hooks.CombineBatch = func(w int) {
		switch w {
		case 0:
			panic("combiner 0 exploded") // trips abort on its first batch
		case 1:
			// Hold combiner 1 until the run is doomed, so every user
			// Combine call it makes afterwards is on dead data.
			select {
			case <-aborted:
			case <-time.After(25 * time.Second):
			}
		}
	}
	err := runWithTimeout(t, func() error {
		_, err := Run(spec, cfg)
		return err
	})
	var pe *mr.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *mr.PanicError", err)
	}
	// After the fix combiner 1 applies at most its one in-flight batch;
	// before it, it combined the bulk of its mapper's 60k pairs.
	if calls := combineCalls.Load(); calls >= 5000 {
		t.Fatalf("healthy combiner made %d user Combine calls on a doomed run", calls)
	}
	assertClean(t, rec)
}

// TestCancelReleasesBlockedProducer proves the WaitSleep liveness contract
// under cancellation: the hook cancels the context while the mapper is
// blocked on a full ring (and, under WaitSleep, parked on it). A
// cancelled run must still drain the ring and release the
// producer — mappers observe cancellation only at task boundaries, so the
// combiner is what frees them. Only a lane with no Fold can block at all:
// the run is on a plan that ships pairs, which makes its lane the stream
// session's kind.
func TestCancelReleasesBlockedProducer(t *testing.T) {
	const emits = 50_000
	spec := &mr.Spec[int, int, int, int]{
		Name:   "cancel-full-ring",
		Splits: []int{0},
		Map: func(s int, emit func(int, int)) {
			for e := 0; e < emits; e++ {
				emit(e%7, 1)
			}
		},
		Combine:      func(a, b int) int { return a + b },
		Reduce:       mr.IdentityReduce[int, int](),
		NewContainer: func() container.Container[int, int] { return container.NewFixedArray[int](7) },
	}
	cfg := parked(testConfig())
	cfg.Mappers = 1
	cfg.Combiners = 1
	cfg.QueueCapacity = 16
	rec := recordQueues(&cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	cfg.Hooks.CombineBatch = func(int) {
		once.Do(func() {
			cancel()
			// Keep the ring full (ConsumeBatch frees slots only after
			// this hook's batch applies) long enough for the producer to
			// run out of yields and park.
			time.Sleep(5 * time.Millisecond)
		})
	}
	err := runWithTimeout(t, func() error {
		_, err := RunContext(ctx, spec, cfg)
		return err
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	reports := rec.Reports()
	if len(reports) != 1 {
		t.Fatalf("%d queue reports, want 1", len(reports))
	}
	if reports[0].Stats.SleepMicros == 0 {
		t.Fatal("producer never parked: the test did not exercise the blocked-on-a-full-ring path")
	}
	assertClean(t, rec)
}
