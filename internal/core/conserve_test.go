package core

import (
	"testing"
	"time"

	"ramr/internal/container"
	"ramr/internal/mr"
)

// oneAndOne is the minimal pipeline, the shape every 2-CPU grant runs: one
// mapper, one combiner, nothing for a ratio to balance.
func oneAndOne() mr.Config {
	cfg := testConfig()
	cfg.Mappers, cfg.Combiners = 1, 1
	cfg.TaskSize = 1
	return cfg
}

// TestConserveMapBound: a job whose Map is all the work (each task waits a
// millisecond and emits one pair) leaves the combiner with nothing to
// consume. Conserving work, the combiner maps tasks itself and the run takes
// about half as long; under a grant of one CPU for the two workers the rule
// is off — the combiner maps nothing, folds nothing in place, and the run
// takes the mapper's time alone. The wait is a sleep, so the two arms
// differ by the same factor on one processor as on two.
func TestConserveMapBound(t *testing.T) {
	const tasks, wait = 60, time.Millisecond
	spec := skewedSpec(tasks, tasks, wait) // every split is a heavy one
	run := func(cfg mr.Config) (*mr.Result[int, int], time.Duration) {
		t.Helper()
		t0 := time.Now()
		res, err := Run(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := sumValues(res.Pairs); got != tasks {
			t.Fatalf("total %d, want %d", got, tasks)
		}
		if got := res.Steal.TotalTasks() + res.Help.Tasks; got != tasks {
			t.Fatalf("takes cover %d tasks (%d by the combiner), want %d", got, res.Help.Tasks, tasks)
		}
		return res, time.Since(t0)
	}
	alone, aloneTook := run(parked(oneAndOne()))
	if alone.Help != (mr.HelpStats{}) {
		t.Fatalf("one CPU granted to 1+1 workers, and work was conserved: %+v", alone.Help)
	}
	helped, helpedTook := run(oneAndOne())
	if helped.Help.Tasks == 0 || helped.Help.CombinerPairs != helped.Help.Tasks {
		t.Fatalf("idle combiner mapped %d tasks and folded %d pairs in place; want some, one pair each", helped.Help.Tasks, helped.Help.CombinerPairs)
	}
	if helpedTook >= aloneTook*7/10 {
		t.Fatalf("map-bound run took %v with the combiner helping (%d of %d tasks), %v without: want under 0.7x",
			helpedTook, helped.Help.Tasks, tasks, aloneTook)
	}
}

// TestConserveCombineBound: a job whose Combine is all the work fills its
// ring at once. The mapper must never wait on it — it folds the slabs the
// ring refuses into a container of its own — and the result must still be
// exact. The slot's first helped task is held back until the mapper has
// taken its first chunk, so that on one processor the slot, which starts
// first and never has to yield, cannot simply map the whole job itself.
func TestConserveCombineBound(t *testing.T) {
	const splits, emits, keys = 200, 500, 13
	spec := countSpec(splits, emits, keys)
	spec.Combine = func(a, b int) int {
		x := uint32(a)
		for i := 0; i < 200; i++ { // ~100 ns a pair: far dearer than emitting one
			x = x*1664525 + 1013904223
		}
		if x == 0 { // never: keeps the loop
			return 0
		}
		return a + b
	}
	spec.NewContainer = func() container.Container[int, int] { return container.NewFixedArray[int](keys) }
	cfg := oneAndOne()
	cfg.QueueCapacity = 256
	cfg.BatchSize = 64
	mapperStarted := make(chan struct{})
	cfg.Hooks = &mr.Hooks{MapTask: func(w int) {
		if w < cfg.Mappers {
			select {
			case <-mapperStarted:
			default:
				close(mapperStarted) // only the one mapper gets here
			}
			return
		}
		select {
		case <-mapperStarted:
		case <-time.After(10 * time.Second):
		}
	}}
	res, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := sumValues(res.Pairs); got != splits*emits {
		t.Fatalf("total %d, want %d", got, splits*emits)
	}
	conserved(t, res, splits*emits)
	if res.QueueStats.SleepMicros != 0 {
		t.Fatalf("the mapper was parked %d us on a full ring; it has a fold", res.QueueStats.SleepMicros)
	}
	if res.Help.MapperPairs == 0 || res.QueueStats.FailedPush == 0 {
		t.Fatalf("%d pairs folded by the mapper, %d refused slabs counted as failed pushes; want both > 0 (%+v)",
			res.Help.MapperPairs, res.QueueStats.FailedPush, res.QueueStats)
	}
}
