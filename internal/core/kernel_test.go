package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ramr/internal/container"
	"ramr/internal/faultinject"
	"ramr/internal/mr"
	"ramr/internal/spsc"
)

// TestEachRingHasOneConsumer: every ring is consumed by the one slot the
// split gave it, for the whole run and across an abort. Producers push
// elements tagged with their ring into rings small enough that they park
// on them; the injector panics slot 0 at its third fold, and from there
// each slot discard-drains the rings it owns, which must free every parked
// producer. No slot folds a ring it does not own, the panic is the only
// error, and every ring ends drained with pushes == pops. Run it under
// -race too: a second consumer on a ring, folding or discarding, races on
// the ring's consumer-side counters.
func TestEachRingHasOneConsumer(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		const rings, slots = 4, 2
		plan := faultinject.Plan{Kind: faultinject.PanicCombineBatch, Worker: 0, Nth: 3}
		in := faultinject.NewInjector(plan, rings, slots, nil)
		p := shipPool(t, rings, slots, 8, 2, in.Hooks())

		var (
			folder = make([]atomic.Int32, rings) // 1 + the slot that folded ring r; 0 = none yet
			twice  atomic.Int32                  // folds of a ring by a second slot
			prodWG sync.WaitGroup
		)
		p.startSlots(context.Background(), func(slot int) func([]pair[int, int]) {
			return func(seg []pair[int, int]) {
				for _, e := range seg {
					if prev := folder[e.K].Swap(int32(slot) + 1); prev != 0 && prev != int32(slot)+1 {
						twice.Add(1)
					}
				}
			}
		})
		for r, q := range p.queues {
			prodWG.Add(1)
			go func() {
				defer prodWG.Done()
				defer q.Close()
				for i := 0; i < 10_000 && !p.Aborted(); i++ {
					q.PushBatch([]pair[int, int]{{K: r, V: i}})
				}
			}()
		}
		done := make(chan struct{})
		go func() {
			prodWG.Wait()
			p.Wait() // reports every ring to the injector's QueueObserver
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("pool wedged after the abort")
		}

		var pe *mr.PanicError
		if !errors.As(p.Err(), &pe) || twice.Load() != 0 {
			t.Fatalf("run error %v and %d folds by a second slot; want only the injected *mr.PanicError", p.Err(), twice.Load())
		}
		for j, rng := range QueueAssignment(rings, slots) {
			for r := rng[0]; r < rng[1]; r++ {
				if f := folder[r].Load(); f != 0 && f != int32(j)+1 {
					t.Fatalf("ring %d, owned by slot %d, was folded by slot %d", r, j, f-1)
				}
			}
		}
		if err := faultinject.CheckQueues(in.QueueReports()); err != nil {
			t.Fatal(err)
		}
		if leaked := faultinject.AwaitNoWorkers(10 * time.Second); len(leaked) > 0 {
			t.Fatalf("%d leaked worker goroutines:\n%s", len(leaked), leaked[0])
		}
	})
}

// TestLedgerCostsNoAllocation: the ledger is always on, so its cost is
// asserted, not described. With a shard registered, a steady-state lane
// task (whole slabs emitted, then EndTask), one consume round, and one fused
// task on a worker of each role allocate nothing; what they pay is a handful
// of uncontended atomic stores. A fused task is stepped as a batch run steps
// it, into the worker's one container, and as a stream session does, which
// first switches to the fold of the task's pane: the switch costs no
// allocation either. The fused emit closures are built once, outside the
// measured runs, as the driver builds one per container.
func TestLedgerCostsNoAllocation(t *testing.T) {
	p := shipPool(t, 1, 1, 64, 8, nil)
	ledger, q := p.Ledger, p.queues[0]
	q.SetGate(spsc.NewGate())
	lane := NewLane(q, 8, 0, nil)
	lane.tw = ledger.Register("mapper", 0)
	s := p.newSlot(0, p.queues, func([]pair[int, int]) {}, ledger.Register("combiner", 0))

	discard := func([]pair[int, int]) {}
	if n := testing.AllocsPerRun(100, func() {
		lane.BeginTask()
		for i := range 32 {
			Emit(lane, pair[int, int]{K: i, V: 1})
		}
		lane.EndTask()
		for q.ConsumeBatch(64, true, discard) > 0 {
		}
	}); n != 0 {
		t.Fatalf("a lane task allocates %.1f times", n)
	}
	slab := make([]pair[int, int], 8)
	if n := testing.AllocsPerRun(100, func() {
		q.PushBatch(slab)
		s.round()
	}); n != 0 {
		t.Fatalf("a consume round allocates %.1f times", n)
	}
	if tot := ledger.Totals(); tot.Tasks != 101 || tot.Emitted != 101*32 || tot.Queue.Pops != q.Snapshot().Pops {
		t.Fatalf("books %+v, ring %+v: want 101 tasks of 32 pairs and the ring's pops", tot, q.Snapshot())
	}

	// A fused worker of each role, which has no ring: stepped as a batch
	// run's, always into the same container, and as a session's, into the
	// container of the task's pane (two panes, taken in turn).
	add := func(a, b int) int { return a + b }
	for i, role := range []string{"mapper", "combiner", "mapper", "combiner"} {
		session := i >= 2
		fused := NewLane[pair[int, int]](nil, 8, i+1, nil)
		fused.tw = ledger.Register(role, i+1)
		panes := []func(int, int){
			Fuse(fused, container.NewFixedArray[int](32), add),
			Fuse(fused, container.NewFixedArray[int](32), add),
		}
		emit, task := panes[0], 0
		if n := testing.AllocsPerRun(100, func() {
			if session {
				emit = panes[task%2]
				task++
			}
			fused.BeginTask()
			for k := range 32 {
				emit(k, 1)
			}
			fused.EndTask()
		}); n != 0 {
			t.Fatalf("a fused %s task (session step %v) allocates %.1f times", role, session, n)
		}
	}
	// What a shard combined without popping it, it folded where it emitted.
	if tot := ledger.Totals(); tot.Tasks != 5*101 || tot.Combined-tot.Queue.Pops != 4*101*32 {
		t.Fatalf("books %+v: want 101 fused tasks of 32 pairs on each of four lanes, folded in place", tot)
	}
}
