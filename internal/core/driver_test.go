package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"ramr/internal/container"
	"ramr/internal/mr"
	"ramr/internal/telemetry"
	"ramr/internal/topology"
)

// TestStepAllocatesNothing: the one step on a batch task — a run of
// splits — allocates nothing once its pane's container exists, on a worker
// of each role, with the pane changing on every step, into each kind of
// container. A session's split goes through the same step (stream's
// TestConserveSessionStepAllocatesNothing).
func TestStepAllocatesNothing(t *testing.T) {
	for kind, factory := range map[container.Kind]container.Factory[int, int]{
		container.KindFixedArray: func() container.Container[int, int] { return container.NewFixedArray[int](16) },
		container.KindFixedHash:  func() container.Container[int, int] { return container.NewFixedHash[int, int](16, container.HashInt) },
		container.KindHash:       func() container.Container[int, int] { return container.NewHash[int, int]() },
	} {
		spec, cfg := countSpec(4, 8, 16), testConfig()
		spec.NewContainer = factory
		d, err := newDriver(spec, cfg, "ramr", true, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d.Ship {
			t.Fatal("a plan without SMT ships pairs")
		}
		for _, w := range []int{0, cfg.Mappers} {
			d.RunWorker(context.Background(), w, func(w int, lane *Lane[pair[int, int]], _ *telemetry.Worker) {
				step, n := d.Step(w, lane, nil), 0
				if allocs := testing.AllocsPerRun(100, func() {
					step(Task[int]{Splits: spec.Splits, Pane: int64(n % 2)})
					n++
				}); allocs != 0 {
					t.Errorf("%v: worker %d's step allocates %.1f times", kind, w, allocs)
				}
			})
		}
		if err := d.Err(); err != nil {
			t.Fatal(err)
		}
		// Every pair folded where it was emitted: combined, never pushed.
		if tot := d.Ledger.Totals(); tot.Tasks != 2*101 || tot.Emitted != 2*101*4*8 || tot.Combined != tot.Emitted || tot.Queue.Pushes != 0 {
			t.Fatalf("%v: books %+v: want 101 steps of 32 pairs on each worker, folded in place", kind, tot)
		}
	}
}

// TestFusedStepHandsMapTheFold: a hook-free fused step hands Map the
// container's own fold — the closure Container.Fold built, with nothing in
// front of it — so a folded pair costs one call into the container plus
// combine. With a MapEmit hook set, Map gets the hook's wrapper instead.
func TestFusedStepHandsMapTheFold(t *testing.T) {
	for _, hooked := range []bool{false, true} {
		spec, cfg := countSpec(1, 8, 16), testConfig()
		if hooked {
			cfg.Hooks = &mr.Hooks{MapEmit: func(int) {}}
		}
		var handed uintptr
		mapPairs := spec.Map
		spec.Map = func(s int, emit func(int, int)) {
			handed = reflect.ValueOf(emit).Pointer()
			mapPairs(s, emit)
		}
		d, err := newDriver(spec, cfg, "ramr", true, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		d.RunWorker(context.Background(), 0, func(w int, lane *Lane[pair[int, int]], _ *telemetry.Worker) {
			d.Step(w, lane, nil)(Task[int]{Splits: spec.Splits})
		})
		var n uint64
		fold := reflect.ValueOf(spec.NewContainer().Fold(spec.Combine, &n)).Pointer()
		if (handed == fold) == hooked {
			t.Fatalf("hooked %v: Map was handed code %#x, the container's fold is %#x", hooked, handed, fold)
		}
		if tot := d.Ledger.Totals(); tot.Combined != 8 || tot.Queue.Pops != 0 {
			t.Fatalf("hooked %v: %d pairs combined, %d popped; want 8 folded", hooked, tot.Combined, tot.Queue.Pops)
		}
	}
}

// TestSessionHoldsOneFoldPerOpenPane: over 1,200 sliding windows of three
// panes, each fused worker holds, once a window is finished, exactly the
// panes still open — each with its container and its fold, built once with
// the container — and no fold of a finished pane. Every window holds what
// its panes' tasks emitted.
func TestSessionHoldsOneFoldPerOpenPane(t *testing.T) {
	const windows, k, splits, emits = 1200, 3, 2, 5
	spec := countSpec(splits, emits, 16)
	var built int
	newContainer := spec.NewContainer
	spec.NewContainer = func() container.Container[int, int] {
		built++
		return newContainer()
	}
	d, err := NewSession(spec, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	steps := make([]func(Task[int]), len(d.CPUs))
	for w := range steps {
		lane := NewLane[pair[int, int]](nil, 8, w, nil)
		lane.tw = d.Ledger.Register("mapper", w)
		steps[w] = d.Step(w, lane, nil)
	}
	stepPane := func(pane int64) {
		for _, step := range steps {
			step(Task[int]{Splits: spec.Splits, Pane: pane})
		}
	}
	for pane := range int64(k - 1) {
		stepPane(pane)
	}
	var ph mr.PhaseTimes
	for n := range int64(windows) {
		stepPane(n + k - 1)
		pairs, err := d.Finish(n, k, &ph)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, p := range pairs {
			total += p.Value
		}
		if want := k * len(steps) * splits * emits; total != want {
			t.Fatalf("window %d holds %d pairs, want %d", n, total, want)
		}
		for w, m := range d.panes {
			if len(m) != k-1 {
				t.Fatalf("after window %d worker %d holds %d panes, want the %d open ones", n, w, len(m), k-1)
			}
			for pane := n + 1; pane < n+k; pane++ {
				if o, ok := m[pane]; !ok || o.c == nil || o.emit == nil {
					t.Fatalf("after window %d worker %d's open pane %d is %+v", n, w, pane, o)
				}
			}
		}
	}
	if want := len(steps) * (windows + k - 1); built != want {
		t.Fatalf("%d containers built, want one per worker and pane: %d", built, want)
	}
}

// TestTaskSourceAppendsDealsAndParks: an open source deals appended splits
// to the groups in proportion to their workers — none to a group without
// one — and reuses its slots in FIFO order. A worker that finds nothing
// parks until an append, the close or the run's death.
func TestTaskSourceAppendsDealsAndParks(t *testing.T) {
	dying := make(chan struct{})
	tq := newTaskQueues[int](nil, multiSocket(3), []int{2, 1, 0}, mr.StealOff, true, dying)
	splits := make([]int, 60)
	for i := range splits {
		splits[i] = i
	}
	tq.Append(7, splits[:30])
	got := [3][]int{}
	for g := 0; g < 2; g++ {
		for tq.deques[g].tail > tq.deques[g].head {
			tasks, _, _ := tq.take(g, nil)
			if tasks[0].Pane != 7 {
				t.Fatalf("task in pane %d, want 7", tasks[0].Pane)
			}
			got[g] = append(got[g], tasks[0].Splits[0])
		}
	}
	if len(got[0]) != 20 || len(got[1]) != 10 || tq.deques[2].tail != 0 {
		t.Fatalf("dealt %d/%d/%d splits, want 20/10/0 for 2/1/0 workers", len(got[0]), len(got[1]), tq.deques[2].tail)
	}
	// A second round through the same ring slots comes out in order.
	tq.Append(8, splits[30:])
	for i := 0; tq.deques[1].tail > tq.deques[1].head; i++ {
		tasks, _, _ := tq.take(1, nil)
		if s := tasks[0].Splits[0]; s != 32+3*i {
			t.Fatalf("group 1's take %d is split %d, want %d", i, s, 32+3*i)
		}
	}

	parked := func(g int) chan bool {
		out := make(chan bool, 1)
		go func() {
			_, _, ok := tq.take(g, nil)
			out <- ok
		}()
		select {
		case ok := <-out:
			t.Fatalf("group %d's take returned %v on an empty open source, want it parked", g, ok)
		case <-time.After(20 * time.Millisecond):
		}
		return out
	}
	woken := func(out chan bool, want bool, what string) {
		select {
		case ok := <-out:
			if ok != want {
				t.Fatalf("%s: take returned %v, want %v", what, ok, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: the parked take never woke", what)
		}
	}
	out := parked(1)
	tq.Append(9, splits[:3])
	woken(out, true, "append")
	out = parked(2) // a group without a worker is dealt nothing
	tq.Close()
	woken(out, false, "close")
	for tq.deques[0].tail > tq.deques[0].head {
		tq.take(0, nil)
	}
	if _, _, ok := tq.take(0, nil); ok {
		t.Fatal("took a task from a closed, drained source")
	}

	open := newTaskQueues[int](nil, topology.Flat(2), []int{2}, mr.StealChunked, true, dying)
	out = make(chan bool, 1)
	go func() {
		_, _, ok := open.take(0, nil)
		out <- ok
	}()
	close(dying)
	woken(out, false, "abort")
}
