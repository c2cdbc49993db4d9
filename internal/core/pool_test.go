package core

import (
	"context"
	"slices"
	"sync"
	"testing"

	"ramr/internal/mr"
	"ramr/internal/spsc"
	"ramr/internal/telemetry"
	"ramr/internal/topology"
)

// testQueues builds n tiny open queues for pool unit tests.
func testQueues(n int) []*spsc.Queue[pair[int, int]] {
	qs := make([]*spsc.Queue[pair[int, int]], n)
	for i := range qs {
		q, err := spsc.New[pair[int, int]](8, spsc.WaitSleep)
		if err != nil {
			panic(err)
		}
		qs[i] = q
	}
	return qs
}

// testGates builds one gate per combiner slot.
func testGates(n int) []*spsc.Gate {
	gs := make([]*spsc.Gate, n)
	for i := range gs {
		gs[i] = spsc.NewGate()
	}
	return gs
}

func ident(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// TestElasticPoolPartition: the one split rule deals every ring to exactly
// one slot, as a dense run of the order, and leaves no slot empty while
// there are rings enough to go round.
func TestElasticPoolPartition(t *testing.T) {
	for rings := 1; rings <= 7; rings++ {
		order := ident(rings)
		slices.Reverse(order) // any order: the split follows it, not the indices
		for slots := 1; slots <= rings; slots++ {
			own := splitRings(order, slots)
			var dealt []int
			for j, s := range own {
				if len(s) == 0 {
					t.Fatalf("%d rings over %d slots: slot %d owns nothing", rings, slots, j)
				}
				dealt = append(dealt, s...)
			}
			if !slices.Equal(dealt, order) {
				t.Fatalf("%d rings over %d slots: dealt %v, want each of %v once, in order", rings, slots, own, order)
			}
		}
	}
}

// TestElasticPoolRetireRequiresDrained: a closed ring still holding more
// than one batch is not retired — its slot keeps consuming it before it
// exits — while an empty closed ring retires at once.
func TestElasticPoolRetireRequiresDrained(t *testing.T) {
	const held = 6 // a batch of 4 and a remainder of 2
	qs := testQueues(2)
	for i := range held {
		qs[0].Push(pair[int, int]{K: i, V: 1})
	}
	qs[0].Close() // closed but non-empty: not drained
	qs[1].Close()
	var wg sync.WaitGroup
	folded := 0
	StartCombiners(context.Background(), &wg, Combiners[pair[int, int]]{
		Engine: "test",
		Queues: qs,
		Gates:  testGates(1),
		Order:  ident(2),
		CPUs:   []int{-1},
		Ledger: telemetry.NewLedger("test"),
		Batch:  4,
		Apply: func(int) func([]pair[int, int]) {
			return func(seg []pair[int, int]) { folded += len(seg) }
		},
		Abort: func() bool { return false },
		Fail:  func(err error) { t.Error(err) },
	})
	wg.Wait()
	if folded != held || !qs[0].Drained() || !qs[1].Drained() {
		t.Fatalf("slot exited with %d of %d elements folded (drained %v, %v)", folded, held, qs[0].Drained(), qs[1].Drained())
	}
}

// TestLocalityOrder: queues sort by locality group, stable within one.
func TestLocalityOrder(t *testing.T) {
	got := localityOrder([]int{1, 0, 1, 0, 2, 0})
	want := []int{1, 3, 5, 0, 2, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("localityOrder = %v, want %v", got, want)
		}
	}
}

// TestPoolSplitFollowsPlan: there is one split rule. The pool deals rings
// to slots by QueueAssignment — the rule BuildPlanOn places each combiner
// next to its mappers by — so combiner j consumes exactly the rings pinned
// beside it and the plan's worst combiner-to-mapper distance is the one the
// run really has (§III-B, Fig. 3), remainder and all.
func TestPoolSplitFollowsPlan(t *testing.T) {
	m := topology.HaswellServer()
	for _, mc := range [][2]int{{3, 2}, {7, 3}, {8, 8}} {
		mappers, combiners := mc[0], mc[1]
		plan := BuildPlanOn(m, nil, mappers, combiners, mr.PinRAMR)
		order := localityOrder(workerGroups(m, plan.MapperCPU, len(m.LocalityGroups())))
		own := splitRings(order, combiners)
		worst := -1
		for j, rng := range QueueAssignment(mappers, combiners) {
			var want []int
			for i := rng[0]; i < rng[1]; i++ {
				want = append(want, i)
			}
			if !slices.Equal(own[j], want) {
				t.Fatalf("M=%d C=%d: slot %d owns %v, the plan pinned it next to %v", mappers, combiners, j, own[j], want)
			}
			for _, qi := range own[j] {
				worst = max(worst, m.Distance(plan.CombinerCPU[j], plan.MapperCPU[qi]))
			}
		}
		if want := plan.MaxDistance(m); worst != want {
			t.Fatalf("M=%d C=%d: consumed at distance %d, planned %d", mappers, combiners, worst, want)
		}
	}
}

// TestUntunedRunMirrorsConsumerCounters: every slot books its rings'
// consumer-side counters on its ledger shard on every run, sampled or not,
// so the result's queue stats equal the rings' own counters.
func TestUntunedRunMirrorsConsumerCounters(t *testing.T) {
	cfg := parked(testConfig()) // every pair through a ring
	var mu sync.Mutex
	var rings mr.QueueStats
	cfg.Hooks = &mr.Hooks{QueueObserver: func(_ int, _ bool, s spsc.Stats) {
		mu.Lock()
		rings.Add(s)
		mu.Unlock()
	}}
	res, err := Run(countSpec(40, 50, 11), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.QueueStats; got != rings || got.Pops != 40*50 || got.BatchCalls == 0 {
		t.Fatalf("ledger queue stats %+v, rings counted %+v; want %d pops in some batch calls", got, rings, 40*50)
	}
}
