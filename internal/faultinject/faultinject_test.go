package faultinject

import (
	"testing"
	"time"

	"ramr/internal/spsc"
)

func TestNewPlanDeterministic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a := NewPlan(seed, 4, 2)
		b := NewPlan(seed, 4, 2)
		if a != b {
			t.Fatalf("seed %d: %v != %v", seed, a, b)
		}
		if a.Worker < 0 || a.Nth < 1 || a.Every < 1 || a.Delay <= 0 {
			t.Fatalf("seed %d: degenerate plan %v", seed, a)
		}
		switch a.Kind {
		case PanicCombineBatch, DelayCombine, CancelMidDrain:
			if a.Worker >= 2 {
				t.Fatalf("seed %d: combiner-scoped worker %d out of range", seed, a.Worker)
			}
		default:
			if a.Worker >= 4 {
				t.Fatalf("seed %d: map-scoped worker %d out of range", seed, a.Worker)
			}
		}
	}
}

func TestPlanKindsCovered(t *testing.T) {
	seen := map[Kind]bool{}
	for seed := int64(0); seed < 500; seed++ {
		seen[NewPlan(seed, 4, 2).Kind] = true
	}
	for k := None; k < numKinds; k++ {
		if !seen[k] {
			t.Fatalf("kind %v never drawn in 500 seeds", k)
		}
	}
}

func TestInjectorFiresAtNth(t *testing.T) {
	plan := Plan{Seed: 1, Kind: PanicMapEmit, Worker: 1, Nth: 3}
	in := NewInjector(plan, 2, 1, nil)
	h := in.Hooks()
	h.MapEmit(0) // wrong worker: never fires
	h.MapEmit(1)
	h.MapEmit(1)
	if in.Fired() {
		t.Fatal("fired before Nth call")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic at Nth emit")
			}
		}()
		h.MapEmit(1)
	}()
	if !in.Fired() {
		t.Fatal("not marked fired")
	}
}

func TestWrapCombineCountsGlobally(t *testing.T) {
	plan := Plan{Seed: 2, Kind: PanicCombine, Nth: 5}
	in := NewInjector(plan, 1, 1, nil)
	f := WrapCombine(in, func(a, b int) int { return a + b })
	for i := 0; i < 4; i++ {
		if got := f(1, 2); got != 3 {
			t.Fatalf("wrapped combine = %d", got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic at Nth combine")
		}
	}()
	f(1, 2)
}

func TestCheckQueues(t *testing.T) {
	good := []QueueReport{{Queue: 0, Drained: true, Stats: spsc.Stats{Pushes: 10, Pops: 10}}}
	if err := CheckQueues(good); err != nil {
		t.Fatal(err)
	}
	undrained := []QueueReport{{Queue: 1, Drained: false}}
	if err := CheckQueues(undrained); err == nil {
		t.Fatal("undrained queue accepted")
	}
	leaky := []QueueReport{{Queue: 2, Drained: true, Stats: spsc.Stats{Pushes: 10, Pops: 7}}}
	if err := CheckQueues(leaky); err == nil {
		t.Fatal("conservation violation accepted")
	}
}

func TestWorkerStacksFindsQueueWaiter(t *testing.T) {
	q := spsc.MustNew[int](2, spsc.WaitSleep)
	q.Push(1)
	q.Push(2)
	blocked := make(chan struct{})
	go func() {
		close(blocked)
		q.Push(3) // parks until the consumer pops
	}()
	<-blocked
	deadline := time.Now().Add(2 * time.Second)
	for len(WorkerStacks()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("blocked spsc producer not visible in WorkerStacks")
		}
		time.Sleep(time.Millisecond)
	}
	q.TryPop() // release the producer
	q.TryPop()
	q.TryPop()
	if leaked := AwaitNoWorkers(5 * time.Second); len(leaked) > 0 {
		t.Fatalf("worker still reported after release:\n%s", leaked[0])
	}
}
