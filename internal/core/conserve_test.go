package core

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"ramr/internal/container"
	"ramr/internal/mr"
	"ramr/internal/spsc"
	"ramr/internal/telemetry"
	"ramr/internal/topology"
)

// oneAndOne is the minimal pool, the shape every 2-CPU grant runs: one
// mapper, one combiner, nothing for a ratio to balance.
func oneAndOne() mr.Config {
	cfg := testConfig()
	cfg.Mappers, cfg.Combiners = 1, 1
	cfg.TaskSize = 1
	return cfg
}

// TestConserveMapBound: a job whose Map is all the work (each task waits a
// millisecond and emits one pair) leaves the combiner with nothing to
// consume. Conserving work, the combine worker maps tasks itself and the
// run takes about half as long; on a plan that ships pairs (parked) the
// combiner maps nothing, folds nothing in place, and the run takes the
// mapper's time alone. The wait is a sleep, so
// the two arms differ by the same factor on one processor as on two.
func TestConserveMapBound(t *testing.T) {
	const tasks, wait = 60, time.Millisecond
	spec := skewedSpec(tasks, tasks, wait) // every split is a heavy one
	run := func(cfg mr.Config) (*mr.Result[int, int], time.Duration) {
		t.Helper()
		cfg.Telemetry = telemetry.New()
		t0 := time.Now()
		res, err := Run(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := sumValues(res.Pairs); got != tasks {
			t.Fatalf("total %d, want %d", got, tasks)
		}
		if got := res.Steal.TotalTasks(); got != tasks {
			t.Fatalf("takes cover %d tasks (%d by the combiner), want %d", got, roleBooks(res.Telemetry, "combiner").Tasks, tasks)
		}
		return res, time.Since(t0)
	}
	alone, aloneTook := run(parked(oneAndOne()))
	if c := roleBooks(alone.Telemetry, "combiner"); c.Tasks != 0 || alone.QueueStats.Pushes != tasks {
		t.Fatalf("1+1 workers on a sibling plan, and work was conserved: the combiner mapped %d tasks, %d of %d pairs pushed",
			c.Tasks, alone.QueueStats.Pushes, tasks)
	}
	helped, helpedTook := run(oneAndOne())
	c := roleBooks(helped.Telemetry, "combiner")
	if c.Tasks == 0 || c.Emitted != c.Tasks || c.Combined != c.Emitted {
		t.Fatalf("idle combiner mapped %d tasks, emitted %d pairs and combined %d; want some tasks, one pair each, folded in place",
			c.Tasks, c.Emitted, c.Combined)
	}
	if helpedTook >= aloneTook*7/10 {
		t.Fatalf("map-bound run took %v with the combiner helping (%d of %d tasks), %v without: want under 0.7x",
			helpedTook, c.Tasks, tasks, aloneTook)
	}
}

// TestConserveCombineBound: a job whose Combine is all the work would fill
// its ring at once. Conserving work, there is no ring: the mapper folds
// every pair it emits into a container of its own, so it never parks, and
// the result must still be exact. The combine worker's first task is held
// back until the mapper has taken its first, so that on one processor the
// combine worker, which may start first and never has to yield, cannot
// simply map the whole job itself. On a plan that ships pairs the same job
// is the paper's pipeline: every pair crosses the ring.
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
	cfg.Telemetry = telemetry.New()
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
	for _, conserving := range []bool{true, false} {
		run := cfg
		if !conserving {
			run = parked(cfg)
		}
		res, err := Run(spec, run)
		if err != nil {
			t.Fatal(err)
		}
		if got := sumValues(res.Pairs); got != splits*emits {
			t.Fatalf("conserving=%v: total %d, want %d", conserving, got, splits*emits)
		}
		conserved(t, res, splits*emits)
		qs := res.QueueStats
		if !conserving {
			if qs.Pushes != splits*emits {
				t.Fatalf("sibling plan: %d pushed; want every pair through the ring", qs.Pushes)
			}
			continue
		}
		if qs.Pushes != 0 || qs.FailedPush != 0 || qs.SleepMicros != 0 {
			t.Fatalf("conserving: the mapper used its ring: %+v", qs)
		}
		// A mapper's shard pops nothing, so what it combined it folded.
		if m := roleBooks(res.Telemetry, "mapper"); m.Combined == 0 {
			t.Fatalf("conserving: the mapper folded nothing where it emitted (%+v)", m)
		}
	}
}

// TestConserveBuildsNoRing: a conserving run is one pool of fused workers
// and builds nothing else. No ring is made, so the queue observer never
// fires and every queue counter is zero; the ledger holds exactly one
// mapper shard per mapper and one combiner shard per combiner; the Map hooks
// see worker ids 0..M+C-1; and the books close: every take booked, every
// pair folded where it was emitted, and the shards' tasks are the takes.
func TestConserveBuildsNoRing(t *testing.T) {
	const splits, emits, keys = 60, 50, 7
	cfg := testConfig()
	cfg.TaskSize = 1
	cfg.Telemetry = telemetry.New()
	observed := 0
	var mu sync.Mutex
	seen := map[int]bool{}
	cfg.Hooks = &mr.Hooks{
		QueueObserver: func(int, bool, spsc.Stats) { observed++ },
		MapTask: func(w int) {
			mu.Lock()
			seen[w] = true
			mu.Unlock()
			time.Sleep(100 * time.Microsecond) // let every worker take a task
		},
	}
	res, err := Run(countSpec(splits, emits, keys), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := sumValues(res.Pairs); got != splits*emits {
		t.Fatalf("total %d, want %d", got, splits*emits)
	}
	if observed != 0 || res.QueueStats != (mr.QueueStats{}) || res.Telemetry.Totals.Queue.Pushes != 0 {
		t.Fatalf("a conserving run built rings: %d observed, stats %+v, report totals %+v", observed, res.QueueStats, res.Telemetry.Totals)
	}
	roles := map[string]int{}
	var tasks uint64
	for _, w := range res.Telemetry.Workers {
		roles[w.Role]++
		tasks += w.Tasks
	}
	if roles["mapper"] != cfg.Mappers || roles["combiner"] != cfg.Combiners || len(roles) != 2 {
		t.Fatalf("ledger shards by role %v, want %d mappers and %d combiners", roles, cfg.Mappers, cfg.Combiners)
	}
	for w := range seen {
		if w < 0 || w >= cfg.Mappers+cfg.Combiners {
			t.Fatalf("MapTask saw worker %d of %d", w, cfg.Mappers+cfg.Combiners)
		}
	}
	if tot := res.Telemetry.Totals; res.Steal.TotalTasks() != splits || tot.Emitted != splits*emits || tot.Combined != tot.Emitted || tasks != splits {
		t.Fatalf("books: steal %s, totals %+v, shards ran %d tasks", res.Steal.String(), tot, tasks)
	}
}

// TestFusedPoolFitsGrant: a fused pool never has more workers than its grant
// has CPUs. A one-CPU grant with explicit counts of four mappers and two
// combiners runs exactly one worker under both dispatch policies, even on an
// SMT machine under the paper's pinning: the ledger holds one shard, the Map
// hooks see only worker 0, no ring is built, and the output is the serial
// reference's.
func TestFusedPoolFitsGrant(t *testing.T) {
	const splits, emits, keys = 40, 25, 17
	spec := countSpec(splits, emits, keys)
	want := mr.Reference(spec)
	for _, engine := range []struct {
		name string
		run  func(context.Context, *mr.Spec[int, int, int, int], mr.Config) (*mr.Result[int, int], error)
	}{{"ramr", RunContext[int, int, int, int]}, {"phoenix", RunPhoenixContext[int, int, int, int]}} {
		cfg := testConfig()
		cfg.Mappers, cfg.Combiners = 4, 2
		cfg.Machine, cfg.Pin, cfg.CPUGrant = topology.HaswellServer(), mr.PinRAMR, []int{0}
		cfg.Telemetry = telemetry.New()
		var mu sync.Mutex
		seen := map[int]bool{}
		observed := 0
		cfg.Hooks = &mr.Hooks{
			QueueObserver: func(int, bool, spsc.Stats) { observed++ },
			MapTask: func(w int) {
				mu.Lock()
				seen[w] = true
				mu.Unlock()
			},
		}
		res, err := engine.run(context.Background(), spec, cfg)
		if err != nil {
			t.Fatalf("%s: %v", engine.name, err)
		}
		if !slices.Equal(res.Pairs, want) {
			t.Fatalf("%s: output disagrees with the reference", engine.name)
		}
		if n := len(res.Telemetry.Workers); n != 1 {
			t.Fatalf("%s: %d ledger shards on a one-CPU grant, want 1", engine.name, n)
		}
		for w := range seen {
			if w != 0 {
				t.Fatalf("%s: MapTask saw worker %d on a one-CPU grant", engine.name, w)
			}
		}
		if w := res.Telemetry.Workers[0]; observed != 0 || res.QueueStats != (mr.QueueStats{}) || w.Role != "mapper" || w.Combined != splits*emits {
			t.Fatalf("%s: %d rings observed, queue stats %+v, the one %s row combined %d; want no ring and every pair folded by the one worker",
				engine.name, observed, res.QueueStats, w.Role, w.Combined)
		}
	}
}
