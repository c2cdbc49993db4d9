package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ramr/internal/faultinject"
	"ramr/internal/mr"
	"ramr/internal/spsc"
	"ramr/internal/telemetry"
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
		qs, gates := testQueues(rings), testGates(slots)
		plan := faultinject.Plan{Kind: faultinject.PanicCombineBatch, Worker: 0, Nth: 3}
		in := faultinject.NewInjector(plan, rings, slots, nil)
		hooks := in.Hooks()

		var (
			abort  atomic.Bool
			mu     sync.Mutex
			errs   []error
			folder = make([]atomic.Int32, rings) // 1 + the slot that folded ring r; 0 = none yet
			wg     sync.WaitGroup
			prodWG sync.WaitGroup
		)
		fail := func(err error) {
			mu.Lock()
			errs = append(errs, err)
			mu.Unlock()
			if abort.CompareAndSwap(false, true) {
				for _, g := range gates {
					g.Wake()
				}
			}
		}
		StartCombiners(context.Background(), &wg, Combiners[pair[int, int]]{
			Engine: "test",
			Queues: qs,
			Gates:  gates,
			Order:  ident(rings),
			CPUs:   []int{-1, -1},
			Ledger: telemetry.NewLedger("test"),
			Hooks:  hooks,
			Batch:  2,
			Apply: func(slot int) func([]pair[int, int]) {
				return func(seg []pair[int, int]) {
					for _, e := range seg {
						if prev := folder[e.K].Swap(int32(slot) + 1); prev != 0 && prev != int32(slot)+1 {
							fail(fmt.Errorf("ring %d folded by slots %d and %d", e.K, prev-1, slot))
						}
					}
				}
			},
			Abort: abort.Load,
			Fail:  fail,
		})
		for r, q := range qs {
			prodWG.Add(1)
			go func() {
				defer prodWG.Done()
				defer q.Close()
				for i := 0; i < 10_000 && !abort.Load(); i++ {
					q.PushBatch([]pair[int, int]{{K: r, V: i}})
				}
			}()
		}
		done := make(chan struct{})
		go func() {
			prodWG.Wait()
			wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("pool wedged after the abort")
		}

		var pe *mr.PanicError
		if len(errs) != 1 || !errors.As(errs[0], &pe) {
			t.Fatalf("run errors = %v, want only the injected *mr.PanicError", errs)
		}
		for j, own := range splitRings(ident(rings), slots) {
			for _, r := range own {
				if f := folder[r].Load(); f != 0 && f != int32(j)+1 {
					t.Fatalf("ring %d, owned by slot %d, was folded by slot %d", r, j, f-1)
				}
			}
		}
		for r, q := range qs {
			hooks.QueueObserver(r, q.Drained(), q.Snapshot())
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
// task (whole slabs emitted, then EndTask) and one consume round allocate
// nothing; what they pay is a handful of uncontended atomic stores.
func TestLedgerCostsNoAllocation(t *testing.T) {
	ledger := telemetry.NewLedger("test")
	q := spsc.MustNew[pair[int, int]](64, spsc.WaitSleep)
	q.SetGate(spsc.NewGate())
	lane := NewLane(q, 8, 0, nil)
	lane.tw = ledger.Register("mapper", 0)
	c := Combiners[pair[int, int]]{
		Queues: []*spsc.Queue[pair[int, int]]{q},
		Batch:  8,
		Apply:  func(int) func([]pair[int, int]) { return func([]pair[int, int]) {} },
	}
	s := newSlot(&c, 0, []int{0}, ledger.Register("combiner", 0))

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
	if tot := ledger.Totals(); tot.Tasks != 101 || tot.Emitted != 101*32 || tot.Pops != q.Snapshot().Pops {
		t.Fatalf("books %+v, ring %+v: want 101 tasks of 32 pairs and the ring's pops", tot, q.Snapshot())
	}
}
