package stream

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ramr/internal/mr"
	"ramr/internal/phoenix"
	"ramr/internal/telemetry"
)

// A session conserves work the way a batch run does with its combiner
// slots: a slot whose rings hold nothing maps one queued split on a
// ring-less lane, folding what it emits straight into its own pane
// containers. The tests below pin the books that keeps, the seal's
// exactness around a split a slot is still mapping, and the grant rule that
// switches it off.

// parked returns cfg under a CPU grant too small for its workers, which
// switches work conservation off (core.ConservesWork): a slot parks on
// empty rings instead of mapping, and every pair crosses a ring.
func parked(cfg mr.Config) mr.Config {
	cfg.CPUGrant = []int{0}
	return cfg
}

// await bounds a wait on a channel a correct session always closes, so a
// broken one fails its assertions instead of hanging the test binary.
func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestConserveGrantTooSmallHelpsNothing: a session whose grant cannot put a
// CPU under every worker runs exactly as sessions did before they conserved
// work — no split mapped by a slot, every pair emitted, pushed and popped.
func TestConserveGrantTooSmallHelpsNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := parked(testConfig(t, &mr.StreamSpec{Window: 1}))
	p, err := New(countSpec(16), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	for ts := int64(0); ts < 3; ts++ {
		if _, err := p.Append(chunkOf(ts, 4, 100)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Close(ctx); err != nil {
		t.Fatal(err)
	}
	const total = 3 * 4 * 100
	if h := p.HelpStats(); h != (mr.HelpStats{}) {
		t.Errorf("help %+v under a one-CPU grant, want none", h)
	}
	if qs, el := p.QueueStats(), p.Stats().Elements; el != total || qs.Pushes != total || qs.Pops != total {
		t.Errorf("%d elements, queue %+v: want %d pairs emitted, pushed and popped", el, qs, total)
	}
	checkNoLeak(t, before)
}

// mixSpec is countSpec with values that differ per element, so two runs
// agree on a window only if they folded the same multiset of pairs. Map
// emits slowly, one slab at a time, until slowUntil fires: each slab wakes
// the slot, which then finds queued splits to map — the map-bound shape
// conservation is for.
func mixSpec(keys int, slowUntil *atomic.Bool) *mr.Spec[int, int, uint64, uint64] {
	spec := countSpec(keys)
	spec.Map = func(n int, emit func(int, uint64)) {
		for e := 0; e < n; e++ {
			emit((n+e)%keys, uint64(e%3+1))
			if e%4 == 3 && !slowUntil.Load() {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}
	return spec
}

// TestConserveMapBoundSession: one mapper and one slot, splits queued far
// faster than the mapper takes them. The slot maps some of them, also after
// a lull in which it found the task channel empty, and the session's books
// still close exactly: per window against a Phoenix++ batch run over the
// same splits, and across the session against the ring and help counters.
func TestConserveMapBoundSession(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		before := runtime.NumGoroutine()
		const keys = 16
		var helped atomic.Bool
		cfg := testConfig(t, &mr.StreamSpec{Window: 1})
		cfg.Mappers = 1
		cfg.QueueCapacity, cfg.BatchSize, cfg.EmitBatch = 64, 4, 4
		cfg.Telemetry = telemetry.New()
		var mapperTakes atomic.Uint64
		cfg.Hooks = &mr.Hooks{MapTask: func(w int) {
			if w < cfg.Mappers {
				mapperTakes.Add(1)
			} else {
				helped.Store(true)
			}
		}}
		p, err := New(mixSpec(keys, &helped), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		chunks := [][]int{{120, 36, 80}, {44, 100, 8, 60}, {96, 12}, {64, 64, 64}}
		for ts, c := range chunks {
			if _, err := p.Append(Chunk[int]{Ts: int64(ts), Splits: c}); err != nil {
				t.Fatal(err)
			}
			if ts > 0 {
				continue
			}
			// A lull after the first chunk: the slot folds its tail and asks
			// for a split while the channel is empty. That "no" is for now
			// only — the slot must help again once more chunks are queued.
			for deadline := time.Now().Add(10 * time.Second); p.Stats().Pending != 0; {
				if time.Now().After(deadline) {
					t.Fatal("first chunk never drained")
				}
				time.Sleep(100 * time.Microsecond)
			}
			time.Sleep(5 * time.Millisecond)
			helped.Store(false)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if err := p.Close(ctx); err != nil {
			t.Fatal(err)
		}

		ws := p.Windows()
		if len(ws) != len(chunks) {
			t.Fatalf("%d windows sealed, want %d", len(ws), len(chunks))
		}
		var total uint64
		for i, w := range ws {
			var want uint64
			for _, n := range chunks[i] {
				want += uint64(n)
			}
			if w.Index != int64(i) || w.Elements != want {
				t.Errorf("window %d (sealed %d-th) holds %d elements, want %d", w.Index, i, w.Elements, want)
			}
			total += w.Elements
			bcfg := mr.DefaultConfig()
			bcfg.Mappers, bcfg.Combiners, bcfg.Pin = 2, 1, mr.PinNone
			bspec := mixSpec(keys, &atomic.Bool{})
			bspec.Splits = chunks[i]
			res, err := phoenix.Run(bspec, bcfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := fmt.Sprint(w.Pairs), fmt.Sprint(res.Pairs); got != want {
				t.Errorf("window %d pairs %s, Phoenix++ over the same splits %s", w.Index, got, want)
			}
		}

		h := p.HelpStats()
		if !helped.Load() {
			t.Fatalf("no split mapped by the slot after the lull (help %+v)", h)
		}
		if got := mapperTakes.Load() + h.Tasks; got != uint64(p.Stats().Splits) || h.MapperPairs != 0 {
			t.Errorf("mapper takes %d + helped %d = %d splits, want %d (help %+v)", mapperTakes.Load(), h.Tasks, got, p.Stats().Splits, h)
		}
		qs := p.QueueStats()
		if qs.Pushes+h.CombinerPairs != total || qs.Pops != qs.Pushes {
			t.Errorf("queue %+v, help %+v: want %d pairs = pushed + folded by slots, every push popped", qs, h, total)
		}
		if el := p.Stats().Elements; el != total {
			t.Errorf("%d elements emitted, windows folded %d", el, total)
		}
		checkNoLeak(t, before)
	})
}

// TestConserveSealWaitsForHelpingSlot: the seal's quiesce check must count a
// split a slot is mapping. The mapper emits one slab of window 0's first
// split and waits inside it until the slot, woken by that slab, has taken
// the second split; the slot then stops mid-split. Once the mapper's split
// is done and folded, the watermark passes window 0 — and the window must
// stay unsealed until the slot resumes, then seal with both splits.
func TestConserveSealWaitsForHelpingSlot(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		before := runtime.NumGoroutine()
		slotIn, paused, resume := make(chan struct{}), make(chan struct{}), make(chan struct{})
		var slotTasks, slotEmits atomic.Int64
		spec := countSpec(8)
		spec.Map = func(n int, emit func(int, uint64)) {
			for e := 0; e < n; e++ {
				emit(e%8, 1)
			}
			if n == 4 { // the mapper's split: hold until the slot took the other
				select {
				case <-slotIn:
				case <-time.After(10 * time.Second):
				}
			}
		}
		cfg := testConfig(t, &mr.StreamSpec{Window: 1})
		cfg.Mappers = 1
		cfg.QueueCapacity, cfg.BatchSize, cfg.EmitBatch = 64, 4, 4
		cfg.Hooks = &mr.Hooks{
			MapTask: func(w int) {
				if w >= cfg.Mappers && slotTasks.Add(1) == 1 {
					close(slotIn)
				}
			},
			MapEmit: func(w int) {
				if w >= cfg.Mappers && slotEmits.Add(1) == 3 {
					close(paused)
					<-resume
				}
			},
		}
		p, err := New(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Append(Chunk[int]{Ts: 0, Splits: []int{4, 20}}); err != nil {
			t.Fatal(err)
		}
		await(t, paused, "the slot to stop mid-split")
		// Whichever split the slot took, the other one finishes on the
		// mapper; wait for it, then move the watermark past window 0.
		for deadline := time.Now().Add(10 * time.Second); p.Stats().Pending != 1; {
			if time.Now().After(deadline) {
				t.Fatalf("pending = %d, want only the slot's split", p.Stats().Pending)
			}
			time.Sleep(100 * time.Microsecond)
		}
		if _, err := p.Append(Chunk[int]{Ts: 1}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
		if n := p.SealedCount(); n != 0 {
			t.Fatalf("%d windows sealed while a slot was still mapping window 0", n)
		}
		close(resume)
		waitSealed(t, p, 1)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := p.Close(ctx); err != nil {
			t.Fatal(err)
		}
		if ws := p.Windows(); len(ws) != 1 || ws[0].Elements != 24 {
			t.Fatalf("windows %+v, want window 0 alone with 24 elements", ws)
		}
		if h := p.HelpStats(); h.Tasks != 1 {
			t.Fatalf("help %+v, want the one split the slot was paused in", h)
		}
		checkNoLeak(t, before)
	})
}

// TestUninstrumentedSessionReadsLive: a session started without a Telemetry
// keeps the same books as a sampled one, and they are live — what its rings
// and its helping slot have done shows in QueueStats and HelpStats while the
// session still runs, not only once it has stopped.
func TestUninstrumentedSessionReadsLive(t *testing.T) {
	before := runtime.NumGoroutine()
	var fast atomic.Bool
	cfg := testConfig(t, &mr.StreamSpec{Window: 1})
	cfg.Mappers = 1
	cfg.QueueCapacity, cfg.BatchSize, cfg.EmitBatch = 64, 4, 4
	p, err := New(mixSpec(16, &fast), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	for ts, c := range [][]int{{120, 36, 80}, {44, 100, 8, 60}} {
		if _, err := p.Append(Chunk[int]{Ts: int64(ts), Splits: c}); err != nil {
			t.Fatal(err)
		}
	}
	var qs mr.QueueStats
	var h mr.HelpStats
	for deadline := time.Now().Add(10 * time.Second); ; {
		qs, h = p.QueueStats(), p.HelpStats()
		if qs.Pushes > 0 && qs.Pops > 0 && h.Tasks > 0 && h.CombinerPairs > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("live session reads queue %+v, help %+v: want pushes, pops and help before Close", qs, h)
		}
		time.Sleep(100 * time.Microsecond)
	}
	fast.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Close(ctx); err != nil {
		t.Fatal(err)
	}
	checkNoLeak(t, before)
}
