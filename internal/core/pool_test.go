package core

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ramr/internal/mr"
	"ramr/internal/spsc"
	"ramr/internal/telemetry"
	"ramr/internal/topology"
)

// shipPool builds a pool whose plan ships pairs: rings mappers and slots
// combiners under the paper's pinning on the Haswell preset, rings of
// capacity elements consumed batch at a time.
func shipPool(t *testing.T, rings, slots, capacity, batch int, hooks *mr.Hooks) *Pool[pair[int, int]] {
	t.Helper()
	cfg := mr.DefaultConfig()
	cfg.Mappers, cfg.Combiners = rings, slots
	cfg.QueueCapacity, cfg.BatchSize = capacity, batch
	cfg.Machine, cfg.Pin, cfg.Hooks = topology.HaswellServer(), mr.PinRAMR, hooks
	p, err := NewPool[pair[int, int]](cfg, "test", true)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Ship || len(p.queues) != rings || len(p.gates) != slots {
		t.Fatalf("%d+%d pool ships=%v with %d rings and %d gates; want a ring per mapper and a gate per slot", rings, slots, p.Ship, len(p.queues), len(p.gates))
	}
	return p
}

// foldedBy runs p's combiner slots over its rings, each holding one element
// tagged with its index, and returns the rings each slot folded, in the
// order it polled them.
func foldedBy(t *testing.T, p *Pool[pair[int, int]]) [][]int {
	t.Helper()
	for r, q := range p.queues {
		q.PushBatch([]pair[int, int]{{K: r}})
		q.Close()
	}
	got := make([][]int, len(p.gates)) // entry j is written by slot j only
	p.startSlots(context.Background(), func(j int) func([]pair[int, int]) {
		return func(seg []pair[int, int]) {
			for _, e := range seg {
				got[j] = append(got[j], e.K)
			}
		}
	})
	p.Wait()
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestElasticPoolPartition: the one split rule deals every ring to exactly
// one slot, as a dense run in ring order, and leaves no slot empty while
// there are rings enough to go round.
func TestElasticPoolPartition(t *testing.T) {
	for rings := 1; rings <= 7; rings++ {
		for slots := 1; slots <= rings; slots++ {
			own := foldedBy(t, shipPool(t, rings, slots, 8, 4, nil))
			var dealt []int
			for j, s := range own {
				if len(s) == 0 {
					t.Fatalf("%d rings over %d slots: slot %d owns nothing", rings, slots, j)
				}
				dealt = append(dealt, s...)
			}
			if !slices.Equal(dealt, ident(rings)) {
				t.Fatalf("%d rings over %d slots: dealt %v, want each ring once, in order", rings, slots, own)
			}
		}
	}
}

func ident(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// TestElasticPoolRetireRequiresDrained: a closed ring still holding more
// than one batch is not retired — its slot keeps consuming it before it
// exits — while an empty closed ring retires at once.
func TestElasticPoolRetireRequiresDrained(t *testing.T) {
	const held = 6 // a batch of 4 and a remainder of 2
	p := shipPool(t, 2, 1, 8, 4, nil)
	qs := p.queues
	for i := range held {
		qs[0].PushBatch([]pair[int, int]{{K: i, V: 1}})
	}
	qs[0].Close() // closed but non-empty: not drained
	qs[1].Close()
	folded := 0
	p.startSlots(context.Background(), func(int) func([]pair[int, int]) {
		return func(seg []pair[int, int]) { folded += len(seg) }
	})
	p.Wait()
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if folded != held || !qs[0].Drained() || !qs[1].Drained() {
		t.Fatalf("slot exited with %d of %d elements folded (drained %v, %v)", folded, held, qs[0].Drained(), qs[1].Drained())
	}
}

// TestPoolSplitFollowsPlan: there is one split rule. The pool's slots take
// rings by QueueAssignment — the rule BuildPlanOn places each combiner next
// to its mappers by — so slot j consumes exactly the rings pinned beside it
// and the plan's worst combiner-to-mapper distance is the one the run
// really has (§III-B, Fig. 3), remainder and all. That holds on a plan that
// wraps round the machine or its grant too, where the mappers of one slot
// sit in different locality groups: a split by locality group would consume
// some ring across the socket.
func TestPoolSplitFollowsPlan(t *testing.T) {
	m := topology.HaswellServer()
	for _, tc := range []struct {
		mappers, combiners int
		grant              []int
	}{
		{3, 2, nil}, {7, 3, nil}, {8, 8, nil},
		{30, 30, nil},                // 60 workers on 56 CPUs: the plan wraps
		{8, 8, []int{27, 55, 0, 28}}, // two sibling pairs, one per socket
	} {
		cfg := mr.DefaultConfig()
		cfg.Mappers, cfg.Combiners = tc.mappers, tc.combiners
		cfg.Machine, cfg.Pin, cfg.CPUGrant = m, mr.PinRAMR, tc.grant
		p, err := NewPool[pair[int, int]](cfg, "test", true)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Ship {
			t.Fatalf("%+v: the plan ships no pair", tc)
		}
		own := foldedBy(t, p)
		worst := -1
		for j, rng := range QueueAssignment(tc.mappers, tc.combiners) {
			if want := ident(rng[1])[rng[0]:]; !slices.Equal(own[j], want) {
				t.Fatalf("%+v: slot %d consumed rings %v, the plan pinned it next to %v", tc, j, own[j], want)
			}
			for _, qi := range own[j] {
				worst = max(worst, m.Distance(p.plan.CombinerCPU[j], p.plan.MapperCPU[qi]))
			}
		}
		if want := p.plan.MaxDistance(m); worst != want {
			t.Fatalf("%+v: consumed at distance %d, planned %d", tc, worst, want)
		}
	}
}

// TestPoolSplitFollowsPlanInARun: the same split holds in a whole batch
// run on a sibling plan whose mappers alternate between the sockets (eight
// of each on the two sibling pairs of grant {27, 55, 0, 28}). Split s emits
// 2^s pairs, so a ring's pops name the set of splits its mapper ran, and
// every mapper is held at its first task until each has one, so no two
// rings carry the same count: combiner j's ledger shard must have popped
// exactly what its planned ring carried.
func TestPoolSplitFollowsPlanInARun(t *testing.T) {
	const workers = 8
	spec := countSpec(2*workers, 0, 1)
	spec.Map = func(s int, emit func(int, int)) {
		for range 1 << s {
			emit(0, 1)
		}
	}
	cfg := testConfig()
	cfg.Mappers, cfg.Combiners, cfg.TaskSize = workers, workers, 1
	cfg.Machine, cfg.Pin, cfg.CPUGrant = topology.HaswellServer(), mr.PinRAMR, []int{27, 55, 0, 28}
	if plan := BuildPlanOn(cfg.Machine, cfg.CPUGrant, workers, workers, cfg.Pin); !plan.ShipsPairs(cfg.Machine) {
		t.Fatal("the plan ships no pair")
	}
	cfg.Telemetry = telemetry.New()
	var started sync.Map
	var arrived atomic.Int32
	all := make(chan struct{})
	var mu sync.Mutex
	pops := make([]uint64, workers)
	cfg.Hooks = &mr.Hooks{
		MapTask: func(w int) {
			if _, seen := started.LoadOrStore(w, true); seen {
				return
			}
			if arrived.Add(1) == workers {
				close(all)
			}
			select {
			case <-all:
			case <-time.After(10 * time.Second):
				t.Error("the mappers never all held a task")
			}
		},
		QueueObserver: func(i int, _ bool, s spsc.Stats) {
			mu.Lock()
			pops[i] = s.Pops
			mu.Unlock()
		},
	}
	res, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Pairs[0].Value, 1<<(2*workers)-1; got != want {
		t.Fatalf("%d pairs folded, want %d", got, want)
	}
	slots := 0
	for _, w := range res.Telemetry.Workers {
		if w.Role != "combiner" {
			continue
		}
		slots++
		if w.Combined != pops[w.ID] {
			t.Errorf("slot %d popped %d pairs; its planned ring %d carried %d (rings %v)", w.ID, w.Combined, w.ID, pops[w.ID], pops)
		}
	}
	if slots != workers {
		t.Fatalf("%d combiner shards, want %d", slots, workers)
	}
}

// TestUntunedRunMirrorsConsumerCounters: every slot books its rings'
// consumer-side counters on its ledger shard on every run, with a Telemetry
// or not, so the result's queue stats equal the rings' own counters.
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

// TestFailLatchesErrAndAbort: the run's error is its abort latch. While
// several goroutines Fail at once, a reader that sees Err non-nil always
// sees Aborted, and the first-call effects — the OnAbort hook, Dying's
// close — happen once, for the error Err keeps.
func TestFailLatchesErrAndAbort(t *testing.T) {
	for round := 0; round < 200; round++ {
		var aborts atomic.Int32
		p := shipPool(t, 2, 1, 64, 8, &mr.Hooks{OnAbort: func() { aborts.Add(1) }})
		var start, readers, failers sync.WaitGroup
		start.Add(1)
		stop := make(chan struct{})
		for range 2 {
			readers.Add(1)
			go func() {
				defer readers.Done()
				start.Wait()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if p.Err() != nil && !p.Aborted() {
						t.Error("Err is set but the run is not aborted")
						return
					}
				}
			}()
		}
		errs := []error{errors.New("a"), errors.New("b"), errors.New("c")}
		for _, err := range errs {
			failers.Add(1)
			go func() {
				defer failers.Done()
				start.Wait()
				p.Fail(err)
			}()
		}
		start.Done()
		failers.Wait()
		close(stop)
		readers.Wait()
		if n := aborts.Load(); n != 1 {
			t.Fatalf("round %d: OnAbort fired %d times", round, n)
		}
		if err := p.Err(); !slices.Contains(errs, err) || !p.Aborted() {
			t.Fatalf("round %d: Err %v, Aborted %v after three Fails", round, err, p.Aborted())
		}
		select {
		case <-p.Dying():
		default:
			t.Fatalf("round %d: Dying still open after Fail", round)
		}
		p.Fail(nil)
		if t.Failed() {
			return
		}
	}
}
