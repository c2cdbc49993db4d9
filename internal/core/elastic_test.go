package core

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"ramr/internal/mr"
	"ramr/internal/spsc"
	"ramr/internal/telemetry"
	"ramr/internal/topology"
	"ramr/internal/tuner"
)

// closedQueues builds n tiny drained-on-close queues for pool unit tests.
func closedQueues(n int) []*spsc.Queue[pair[int, int]] {
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

// checkPartition asserts every live queue is owned by exactly one slot
// and no slot beyond active owns anything.
func checkPartition[E any](t *testing.T, p *elasticPool[E]) {
	t.Helper()
	p.mu.RLock()
	defer p.mu.RUnlock()
	seen := map[int]int{}
	for j, s := range p.slots {
		if j >= p.active && len(s) > 0 {
			t.Fatalf("parked slot %d owns queues %v (active=%d)", j, s, p.active)
		}
		for _, qi := range s {
			if prev, dup := seen[qi]; dup {
				t.Fatalf("queue %d owned by slots %d and %d", qi, prev, j)
			}
			seen[qi] = j
		}
	}
	if len(seen) != len(p.live) {
		t.Fatalf("%d queues assigned, %d live", len(seen), len(p.live))
	}
	for _, qi := range p.live {
		if _, ok := seen[qi]; !ok {
			t.Fatalf("live queue %d unowned", qi)
		}
	}
}

// TestElasticPoolPartition: the split, every resize, and every retire
// must preserve the exactly-one-owner-per-live-queue invariant, and the
// pool must report finished only when the last queue retires.
func TestElasticPoolPartition(t *testing.T) {
	qs := closedQueues(7)
	p := newElasticPool(qs, testGates(4), ident(7), 2, false, nil)
	checkPartition(t, p)

	for _, n := range []int{4, 1, 3, 4, 2} {
		p.Resize(n)
		if p.active != n {
			t.Fatalf("active = %d after Resize(%d)", p.active, n)
		}
		checkPartition(t, p)
	}

	// Out-of-range resizes are ignored.
	p.Resize(0)
	p.Resize(99)
	if p.active != 2 {
		t.Fatalf("bad resize changed active to %d", p.active)
	}

	// Retire requires Drained: close each queue (empty → drained), then
	// retire one by one; the pool must finish exactly at the last.
	for i, q := range qs {
		q.Close()
		p.retire(i)
		checkPartition(t, p)
		if last := i == len(qs)-1; p.finished != last {
			t.Fatalf("finished = %v after %d/%d retires", p.finished, i+1, len(qs))
		}
	}
	// Retire is idempotent.
	p.retire(0)
}

// TestElasticPoolResizeMovesWakeUps: a ring's wake-ups must follow it to its
// new owner at the resize, not when that owner next parks — a saturated
// owner never does, and until then every batch-completing push would wake
// the old owner, idle on a gate that no longer owns the ring. Slot 1 loses
// its ring to slot 0 and idles; the hot ring's pushes must leave it asleep.
func TestElasticPoolResizeMovesWakeUps(t *testing.T) {
	qs, gates := closedQueues(2), testGates(2)
	p := newElasticPool(qs, gates, ident(2), 2, false, nil)
	var wakes atomic.Int64
	quit := make(chan struct{})
	idle := make(chan struct{})
	go func() { // slot 1's idle loop, as runElasticCombiner parks it
		defer close(idle)
		for {
			select {
			case <-quit:
				return
			default:
			}
			p.mu.RLock()
			gen := p.gen.Load()
			var waitOn []*spsc.Queue[pair[int, int]]
			for _, qi := range p.slots[1] {
				waitOn = append(waitOn, qs[qi])
			}
			p.mu.RUnlock()
			spsc.Park(gates[1], waitOn, 1, func() bool { return p.gen.Load() != gen })
			wakes.Add(1)
		}
	}()
	settle := func() int64 { // slot 1 is parked again once the count holds still
		for last := int64(-1); ; {
			time.Sleep(2 * time.Millisecond)
			if n := wakes.Load(); n == last {
				return n
			} else {
				last = n
			}
		}
	}
	p.Resize(1) // ring 1 now belongs to slot 0, which is busy and never parks
	base := settle()
	for i := 0; i < 1000; i++ {
		qs[1].Push(pair[int, int]{K: i, V: 1})
		qs[1].DiscardBatch(1)
	}
	if n := settle() - base; n != 0 {
		t.Fatalf("%d wake-ups of the previous owner in 1000 pushes to a ring it lost", n)
	}
	close(quit)
	p.Resize(2)
	<-idle
}

// TestElasticPoolRetireRequiresDrained: an undrained queue must survive a
// retire attempt.
func TestElasticPoolRetireRequiresDrained(t *testing.T) {
	qs := closedQueues(2)
	qs[0].Push(pair[int, int]{K: 1, V: 1})
	qs[0].Close() // closed but non-empty: not drained
	p := newElasticPool(qs, testGates(2), ident(2), 2, false, nil)
	p.retire(0)
	if p.retired[0] {
		t.Fatal("undrained queue retired")
	}
	checkPartition(t, p)
}

// TestElasticPoolGuards: the single-consumer CAS guard fires the
// violation callback on overlapping acquire and stays silent on a clean
// acquire/release sequence.
func TestElasticPoolGuards(t *testing.T) {
	qs := closedQueues(1)
	var got [3]int
	fired := 0
	p := newElasticPool(qs, testGates(2), ident(1), 1, true, func(q, h, c int) {
		got = [3]int{q, h, c}
		fired++
	})
	if !p.acquire(0, 0) {
		t.Fatal("clean acquire failed")
	}
	if p.acquire(0, 1) {
		t.Fatal("overlapping acquire succeeded")
	}
	if fired != 1 || got != [3]int{0, 0, 1} {
		t.Fatalf("violation report = %v (fired %d)", got, fired)
	}
	p.release(0)
	if !p.acquire(0, 1) {
		t.Fatal("acquire after release failed")
	}
	p.release(0)
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
		p := newElasticPool(closedQueues(mappers), testGates(combiners), order, combiners, false, nil)
		worst := -1
		for j, rng := range QueueAssignment(mappers, combiners) {
			var want []int
			for i := rng[0]; i < rng[1]; i++ {
				want = append(want, i)
			}
			if !slices.Equal(p.slots[j], want) {
				t.Fatalf("M=%d C=%d: slot %d owns %v, the plan pinned it next to %v", mappers, combiners, j, p.slots[j], want)
			}
			for _, qi := range p.slots[j] {
				worst = max(worst, m.Distance(plan.CombinerCPU[j], plan.MapperCPU[qi]))
			}
		}
		if want := plan.MaxDistance(m); worst != want {
			t.Fatalf("M=%d C=%d: consumed at distance %d, planned %d", mappers, combiners, worst, want)
		}
	}
}

// TestElasticRunCorrectness: a tuned run (controller active, private
// telemetry) must produce exactly the static result, attach a
// TunerReport, and not attach a telemetry report the user never asked
// for.
func TestElasticRunCorrectness(t *testing.T) {
	spec := countSpec(60, 50, 23)
	cfg := testConfig()
	cfg.Tuner = &tuner.Config{}
	res, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range res.Pairs {
		total += p.Value
	}
	if total != 60*50 {
		t.Fatalf("total = %d, want %d", total, 60*50)
	}
	conserved(t, res, 60*50)
	if res.TunerReport == nil {
		t.Fatal("tuned run attached no TunerReport")
	}
	if res.Telemetry != nil {
		t.Fatal("private tuner telemetry leaked into Result.Telemetry")
	}
}

// TestElasticScheduleChurn: a scripted grow/shrink schedule with fast
// epochs churns ownership mid-run; the result must stay exact, the
// single-consumer guards silent (Hooks enables them), and the decision
// log must record the scripted resizes.
func TestElasticScheduleChurn(t *testing.T) {
	spec := countSpec(48, 200, 31)
	cfg := testConfig()
	cfg.Mappers = 4
	cfg.Combiners = 1
	cfg.TaskSize = 1
	cfg.Telemetry = telemetry.New()
	cfg.Telemetry.Interval = 40 * time.Microsecond
	cfg.Tuner = &tuner.Config{
		EpochTicks:   1,
		MaxCombiners: 4,
		Schedule:     []int{2, 4, 1, 3, 1, 4, 2},
	}
	// Hooks non-nil turns the consumer guards on; a sleepy task hook
	// stretches the map phase across many epochs so resizes land mid-run.
	cfg.Hooks = &mr.Hooks{MapTask: func(int) { time.Sleep(150 * time.Microsecond) }}
	res, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range res.Pairs {
		total += p.Value
	}
	if total != 48*200 {
		t.Fatalf("total = %d, want %d", total, 48*200)
	}
	rep := res.TunerReport
	if rep == nil || len(rep.Epochs) == 0 {
		t.Fatalf("no tuner epochs fired: %+v", rep)
	}
	for _, d := range rep.Epochs {
		if d.Settings.Combiners < 1 || d.Settings.Combiners > 4 {
			t.Fatalf("pool size out of bounds: %+v", d)
		}
	}
	if res.Telemetry == nil {
		t.Fatal("user-provided telemetry lost its report")
	}
}

// TestUntunedRunMirrorsConsumerCounters: the consume loop stores every
// ring's consumer-side counters into its telemetry mirror whether or not a
// tuner is reading them, so a live CountersNow is as good on an untuned
// run as on a tuned one.
func TestUntunedRunMirrorsConsumerCounters(t *testing.T) {
	cfg := parked(testConfig()) // every pair through a ring
	cfg.Telemetry = telemetry.New()
	res, err := Run(countSpec(40, 50, 11), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := cfg.Telemetry.CountersNow()
	if got.Pops != res.QueueStats.Pops || got.Pops != 40*50 {
		t.Fatalf("mirrored pops = %d, rings popped %d, want %d", got.Pops, res.QueueStats.Pops, 40*50)
	}
	if got.BatchCalls == 0 || got.BatchCalls != res.QueueStats.BatchCalls {
		t.Fatalf("mirrored batch calls = %d, rings made %d", got.BatchCalls, res.QueueStats.BatchCalls)
	}
}

// TestNilTunerSurface: with Tuner nil nothing tuner-related appears on
// the result — the static path contract.
func TestNilTunerSurface(t *testing.T) {
	res, err := Run(countSpec(10, 20, 7), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.TunerReport != nil {
		t.Fatal("static run attached a TunerReport")
	}
	if res.Telemetry != nil {
		t.Fatal("static run attached telemetry unasked")
	}
}
