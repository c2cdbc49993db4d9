package stream

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ramr/internal/container"
	"ramr/internal/core"
	"ramr/internal/mr"
	"ramr/internal/telemetry"
	"ramr/internal/topology"
)

// countSpec is a counting job: a split is an element count, Map emits
// (e mod keys, 1) per element, so a window's Elements must equal the
// sum of its chunks' split counts and every pair value sums the
// elements per key — exact conservation with no kernel noise.
func countSpec(keys int) *mr.Spec[int, int, uint64, uint64] {
	return &mr.Spec[int, int, uint64, uint64]{
		Name: "count",
		Map: func(n int, emit func(int, uint64)) {
			for e := 0; e < n; e++ {
				emit(e%keys, 1)
			}
		},
		Combine:      func(a, b uint64) uint64 { return a + b },
		Reduce:       mr.IdentityReduce[int, uint64](),
		NewContainer: func() container.Container[int, uint64] { return container.NewFixedArray[uint64](keys) },
		Less:         func(a, b int) bool { return a < b },
	}
}

func testConfig(t *testing.T, spec *mr.StreamSpec) mr.Config {
	t.Helper()
	cfg := mr.DefaultConfig()
	cfg.Mappers = 2
	cfg.Combiners = 1
	// A machine without SMT: no plan on it puts a combiner beside a mapper.
	cfg.Machine = topology.Flat(2)
	cfg.Stream = spec
	return cfg
}

// chunkOf builds a chunk of splits elements-per-split each.
func chunkOf(ts int64, splits, elems int) Chunk[int] {
	c := Chunk[int]{Ts: ts}
	for i := 0; i < splits; i++ {
		c.Splits = append(c.Splits, elems)
	}
	return c
}

// waitSealed polls until at least n windows sealed or the deadline hits.
func waitSealed[S any, K comparable, V, R any](t *testing.T, p *Pipeline[S, K, V, R], n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.SealedCount() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d sealed windows, have %d", n, p.SealedCount())
		}
		time.Sleep(time.Millisecond)
	}
}

// waitIdle polls until no split is pending: every split is booked, and so
// is its seal (book seals before it releases the split's slot).
func waitIdle[S any, K comparable, V, R any](t *testing.T, p *Pipeline[S, K, V, R]) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); p.Stats().Pending != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("timed out with %d splits pending", p.Stats().Pending)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// checkNoLeak fails the test if the session's goroutines outlive it.
func checkNoLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTumblingConservation is the acceptance scenario: a resident
// session ingests 3 chunks over time and serves 2 sealed tumbling
// windows with exact element conservation, without restarting workers.
func TestTumblingConservation(t *testing.T) {
	before := runtime.NumGoroutine()
	const keys = 16
	cfg := testConfig(t, &mr.StreamSpec{Window: 1})
	cfg.Telemetry = telemetry.New()
	var mapperTakes atomic.Uint64
	cfg.Hooks = &mr.Hooks{MapTask: func(w int) {
		if w < cfg.Mappers {
			mapperTakes.Add(1)
		}
	}}
	p, err := New(countSpec(keys), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	// Three chunks at ticks 0, 1, 2 with distinct element totals.
	want := []uint64{4 * 100, 3 * 50, 2 * 25}
	if _, err := p.Append(chunkOf(0, 4, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Append(chunkOf(1, 3, 50)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Append(chunkOf(2, 2, 25)); err != nil {
		t.Fatal(err)
	}
	// Watermark = 2, so windows 0 and 1 seal while the session stays
	// open — resident workers, no teardown between windows.
	waitSealed(t, p, 2)
	if got := p.SealedCount(); got != 2 {
		t.Fatalf("sealed windows before close = %d, want 2", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	ws := p.Windows()
	if len(ws) != 3 {
		t.Fatalf("sealed windows after close = %d, want 3", len(ws))
	}
	var total uint64
	for i, w := range ws {
		if w.Index != int64(i) || w.Start != int64(i) || w.End != int64(i)+1 {
			t.Fatalf("window %d bounds = [%d,%d) index %d", i, w.Start, w.End, w.Index)
		}
		if w.Elements != want[i] {
			t.Errorf("window %d elements = %d, want %d (conservation violated)", i, w.Elements, want[i])
		}
		var sum uint64
		for _, pr := range w.Pairs {
			sum += pr.Value
		}
		if sum != want[i] {
			t.Errorf("window %d pair-value sum = %d, want %d", i, sum, want[i])
		}
		total += w.Elements
	}
	if total != want[0]+want[1]+want[2] {
		t.Errorf("total elements across windows = %d, want %d", total, want[0]+want[1]+want[2])
	}
	st := p.Stats()
	if st.Chunks != 3 || st.Splits != 9 {
		t.Errorf("stats chunks=%d splits=%d, want 3/9", st.Chunks, st.Splits)
	}
	// The books of a fused session: every split was taken by a map worker
	// or a combine worker, and every pair was folded where it was made.
	checkBooks(t, p, mapperTakes.Load(), total)
	checkNoLeak(t, before)
}

// TestSlidingWindows checks pane sharing: W=2,S=1 windows overlap by
// one tick, so each window's elements are the sum of two ticks'.
func TestSlidingWindows(t *testing.T) {
	const keys = 8
	p, err := New(countSpec(keys), testConfig(t, &mr.StreamSpec{Window: 2, Slide: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	perTick := []uint64{100, 200, 300, 400}
	for ts, n := range perTick {
		if _, err := p.Append(chunkOf(int64(ts), 1, int(n))); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	ws := p.Windows()
	// Windows 0..3 hold data: [0,2) [1,3) [2,4) [3,5).
	want := []uint64{300, 500, 700, 400}
	if len(ws) != len(want) {
		t.Fatalf("sealed %d windows, want %d", len(ws), len(want))
	}
	for i, w := range ws {
		if w.Elements != want[i] {
			t.Errorf("window %d elements = %d, want %d", w.Index, w.Elements, want[i])
		}
	}
}

// TestAutoTicks checks TsAuto assignment: each auto chunk gets the next
// tick, so N auto chunks under W=1 produce N windows.
func TestAutoTicks(t *testing.T) {
	p, err := New(countSpec(4), testConfig(t, &mr.StreamSpec{Window: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ts, err := p.Append(chunkOf(TsAuto, 1, 10))
		if err != nil {
			t.Fatal(err)
		}
		if ts != int64(i) {
			t.Fatalf("auto tick %d assigned %d", i, ts)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if n := p.SealedCount(); n != 3 {
		t.Fatalf("sealed %d windows, want 3", n)
	}
}

// TestBackpressure checks the admission bound: a chunk that would push
// pending past MaxPending draws a BackpressureError with a usable
// retry hint, and the session recovers once the backlog drains.
func TestBackpressure(t *testing.T) {
	spec := &mr.StreamSpec{Window: 1, MaxPending: 4}
	p, err := New(countSpec(4), testConfig(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	// An oversize chunk can never be admitted regardless of backlog.
	_, err = p.Append(chunkOf(0, 5, 1))
	var bp *BackpressureError
	if !errors.As(err, &bp) {
		t.Fatalf("oversize chunk: got %v, want BackpressureError", err)
	}
	if bp.RetryAfter < 50*time.Millisecond || bp.Limit != 4 {
		t.Errorf("hint = %+v", bp)
	}
	if p.Stats().Backpressured != 1 {
		t.Errorf("backpressured counter = %d, want 1", p.Stats().Backpressured)
	}
	// A conforming chunk is admitted after the rejection.
	if _, err := p.Append(chunkOf(0, 4, 10)); err != nil {
		t.Fatalf("conforming chunk rejected: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestLateChunkRejected checks the watermark contract: a tick behind
// the watermark is rejected loudly, not silently folded into a sealed
// window.
func TestLateChunkRejected(t *testing.T) {
	p, err := New(countSpec(4), testConfig(t, &mr.StreamSpec{Window: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Append(chunkOf(5, 1, 10)); err != nil {
		t.Fatal(err)
	}
	_, err = p.Append(chunkOf(2, 1, 10))
	var late *LateChunkError
	if !errors.As(err, &late) {
		t.Fatalf("late chunk: got %v, want LateChunkError", err)
	}
	if late.Ts != 2 || late.Watermark != 5 {
		t.Errorf("late error = %+v", late)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSealSkipsEmptyWindows: sealing costs what the panes holding data
// cost, not the distance between their ticks. After a chunk at tick 0, one
// at tick 10^15 lets window 0 seal and Close seal the far one, on both
// plans, without stepping through the empty windows between them.
// A tick whose window would end past the largest int64 is rejected.
func TestSealSkipsEmptyWindows(t *testing.T) {
	const far = int64(1e15)
	for _, arm := range placementArms {
		t.Run(arm.name, func(t *testing.T) {
			p, err := New(countSpec(4), place(testConfig(t, &mr.StreamSpec{Window: 1}), arm.sibling))
			if err != nil {
				t.Fatal(err)
			}
			checkFused(t, p)
			if err := p.Start(); err != nil {
				t.Fatal(err)
			}
			for _, ts := range []int64{0, far} {
				if _, err := p.Append(chunkOf(ts, 2, 10)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := p.Append(chunkOf(math.MaxInt64, 1, 10)); err == nil {
				t.Fatal("a tick whose window ends past the largest int64 was admitted")
			}
			start := time.Now()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := p.Close(ctx); err != nil {
				t.Fatalf("close after %s: %v", time.Since(start), err)
			}
			ws := p.Windows()
			if len(ws) != 2 || ws[0].Index != 0 || ws[1].Index != far || ws[0].Elements != 20 || ws[1].Elements != 20 {
				t.Fatalf("sealed %d windows %v, want windows 0 and %d of 20 elements each", len(ws), ws, far)
			}
		})
	}
}

// TestHugeLatenessKeepsWindowsOpen: a watermark far below zero seals
// nothing. At a Lateness near the largest int64 the watermark minus the
// window width wraps round, which once sealed window 0 on its first chunk
// and then dropped a later chunk at a tick inside it. Window 0 must stay
// open until Close and then hold both chunks.
func TestHugeLatenessKeepsWindowsOpen(t *testing.T) {
	before := runtime.NumGoroutine()
	p, err := New(countSpec(4), testConfig(t, &mr.StreamSpec{Window: 10, Lateness: math.MaxInt64}))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Append(chunkOf(0, 2, 4)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); p.Stats().Pending != 0; {
		if time.Now().After(deadline) {
			t.Fatal("the first chunk was never mapped")
		}
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(5 * time.Millisecond) // the seal after the split
	if n := p.SealedCount(); n != 0 {
		t.Fatalf("%d windows sealed at watermark %d", n, p.Stats().Watermark)
	}
	if _, err := p.Append(chunkOf(5, 2, 4)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if ws := p.Windows(); len(ws) != 1 || ws[0].Index != 0 || ws[0].Elements != 16 {
		t.Fatalf("windows %+v, want window 0 alone with all 16 elements", ws)
	}
	checkNoLeak(t, before)
}

// TestConcurrentProducers hammers Append from several goroutines (with
// per-producer retry on backpressure) and checks global conservation
// across the sealed windows under -race.
func TestConcurrentProducers(t *testing.T) {
	before := runtime.NumGoroutine()
	const keys = 32
	cfg := testConfig(t, &mr.StreamSpec{Window: 1, Lateness: 2, MaxPending: 64})
	cfg.Mappers = 4
	cfg.Combiners = 2
	p, err := New(countSpec(keys), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	const producers = 4
	const chunksEach = 20
	const elemsPer = 30
	var wg sync.WaitGroup
	var sent atomic.Int64
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < chunksEach; i++ {
				for {
					_, err := p.Append(chunkOf(TsAuto, 2, elemsPer))
					if err == nil {
						sent.Add(1)
						break
					}
					var bp *BackpressureError
					if errors.As(err, &bp) {
						time.Sleep(time.Millisecond)
						continue
					}
					t.Errorf("append: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := p.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	var total uint64
	for _, w := range p.Windows() {
		total += w.Elements
	}
	want := uint64(sent.Load()) * 2 * elemsPer
	if total != want {
		t.Fatalf("elements across windows = %d, want %d (conservation violated)", total, want)
	}
	checkNoLeak(t, before)
}

// TestCancelMidStream checks that cancelling a live session frees every
// worker promptly even with input still queued.
func TestCancelMidStream(t *testing.T) {
	before := runtime.NumGoroutine()
	p, err := New(countSpec(8), testConfig(t, &mr.StreamSpec{Window: 1, MaxPending: 512}))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := p.Append(chunkOf(int64(i), 8, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	p.CancelWait()
	if err := p.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err after cancel = %v, want context.Canceled", err)
	}
	if _, err := p.Append(chunkOf(100, 1, 1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("append after cancel = %v, want context.Canceled", err)
	}
	checkNoLeak(t, before)
}

// TestMapperPanicAborts is the faultinject scenario: a mapper panic
// mid-window must abort the whole session cleanly — Err reports the
// panic, appends fail, all workers exit — and fire the OnAbort hook once,
// as a batch run's abort does.
func TestMapperPanicAborts(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := testConfig(t, &mr.StreamSpec{Window: 1, MaxPending: 512})
	var fired atomic.Bool
	var aborts atomic.Int32
	cfg.Hooks = &mr.Hooks{MapTask: func(int) {
		if fired.CompareAndSwap(false, true) {
			panic("injected mapper fault")
		}
	}, OnAbort: func() { aborts.Add(1) }}
	p, err := New(countSpec(8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := p.Append(chunkOf(int64(i), 4, 100)); err != nil {
			break // session may already be dying; that's the point
		}
	}
	select {
	case <-p.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("session did not stop after mapper panic")
	}
	var pe *mr.PanicError
	if err := p.Err(); !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	} else if !strings.Contains(pe.Error(), "injected mapper fault") {
		t.Fatalf("panic error lost the cause: %v", pe)
	}
	if n := aborts.Load(); n != 1 {
		t.Fatalf("OnAbort fired %d times, want once", n)
	}
	checkNoLeak(t, before)
}

// TestFixedHashOverflowFailsSession: a fused worker folding past its
// fixed-hash container's declared keys fails the session with its
// *mr.PanicError, carrying the overflow, and every session goroutine exits.
func TestFixedHashOverflowFailsSession(t *testing.T) {
	before := runtime.NumGoroutine()
	spec := countSpec(64)
	spec.NewContainer = func() container.Container[int, uint64] {
		return container.NewFixedHash[int, uint64](16, container.HashInt)
	}
	p, err := New(spec, testConfig(t, &mr.StreamSpec{Window: 1, MaxPending: 512}))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Append(chunkOf(0, 4, 100)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("session did not stop after the overflow")
	}
	var pe *mr.PanicError
	if err := p.Err(); !errors.As(err, &pe) || !strings.Contains(pe.Error(), "FixedHash overflow") {
		t.Fatalf("err = %v, want the worker's *mr.PanicError on the overflow", err)
	}
	checkNoLeak(t, before)
}

// sealerPanics are the user functions a seal calls that the tests below
// make panic: Less in the sort, and Reduce, which on a window below the
// grain runs on the sealing goroutine itself.
var sealerPanics = []struct {
	name   string
	breaks func(*mr.Spec[int, int, uint64, uint64])
}{
	{"less", func(s *mr.Spec[int, int, uint64, uint64]) {
		s.Less = func(a, b int) bool { panic("less exploded") }
	}},
	{"reduce", func(s *mr.Spec[int, int, uint64, uint64]) {
		s.Reduce = func(k int, v uint64) uint64 { panic("reduce exploded") }
	}},
}

// TestSealerPanicFailsSession: a Less or a Reduce that panics while a seal
// finishes a window — on whichever goroutine sealed it — fails the session
// with the sealer's *mr.PanicError, on both plans, instead of taking the
// process down, and every session goroutine still exits.
func TestSealerPanicFailsSession(t *testing.T) {
	for _, arm := range placementArms {
		for _, fn := range sealerPanics {
			before := runtime.NumGoroutine()
			cfg := place(testConfig(t, &mr.StreamSpec{Window: 1, MaxPending: 512}), arm.sibling)
			spec := countSpec(8)
			fn.breaks(spec)
			p, err := New(spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkFused(t, p)
			if err := p.Start(); err != nil {
				t.Fatal(err)
			}
			for ts := int64(0); ts < 2; ts++ { // the second chunk's watermark seals window 0
				if _, err := p.Append(chunkOf(ts, 4, 100)); err != nil {
					t.Fatal(err)
				}
			}
			select {
			case <-p.Done():
			case <-time.After(10 * time.Second):
				t.Fatalf("%s, %s: session did not stop after the sealer's panic", arm.name, fn.name)
			}
			var pe *mr.PanicError
			if err := p.Err(); !errors.As(err, &pe) || pe.Worker != "sealer" {
				t.Fatalf("%s, %s: err = %v, want the sealer's *mr.PanicError", arm.name, fn.name, err)
			}
			checkNoLeak(t, before)
		}
	}
}

// TestSealerPanicOnAppendFailsSession: the panicking seal runs on the Append
// goroutine that moved the watermark, window 0 being mapped before it moves.
// That Append still returns the tick it admitted, the session has already
// failed with the sealer's *mr.PanicError when it returns, and every session
// goroutine exits.
func TestSealerPanicOnAppendFailsSession(t *testing.T) {
	for _, arm := range placementArms {
		for _, fn := range sealerPanics {
			before := runtime.NumGoroutine()
			cfg := place(testConfig(t, &mr.StreamSpec{Window: 1, MaxPending: 512}), arm.sibling)
			spec := countSpec(8)
			fn.breaks(spec)
			p, err := New(spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkFused(t, p)
			if err := p.Start(); err != nil {
				t.Fatal(err)
			}
			if _, err := p.Append(chunkOf(0, 4, 100)); err != nil {
				t.Fatal(err)
			}
			waitIdle(t, p) // nothing was due, so window 0 waits for the next watermark
			if ts, err := p.Append(chunkOf(1, 0, 0)); err != nil || ts != 1 {
				t.Fatalf("%s, %s: the sealing Append = %d, %v; want tick 1", arm.name, fn.name, ts, err)
			}
			var pe *mr.PanicError
			if err := p.Err(); !errors.As(err, &pe) || pe.Worker != "sealer" {
				t.Fatalf("%s, %s: err = %v after the sealing Append, want the sealer's *mr.PanicError", arm.name, fn.name, err)
			}
			select {
			case <-p.Done():
			case <-time.After(10 * time.Second):
				t.Fatalf("%s, %s: session did not stop after the sealer's panic", arm.name, fn.name)
			}
			checkNoLeak(t, before)
		}
	}
}

// TestStreamConfigRejectedByBatchEngines checks the batch/stream fence:
// a Config with Stream set cannot reach the one-shot engines.
func TestStreamRequiresSpec(t *testing.T) {
	cfg := mr.DefaultConfig()
	cfg.Mappers = 2
	if _, err := New(countSpec(4), cfg); err == nil {
		t.Fatal("New accepted a config without Stream")
	}
	bad := testConfig(t, &mr.StreamSpec{Window: 3, Slide: 2})
	if _, err := New(countSpec(4), bad); err == nil {
		t.Fatal("New accepted Slide that does not divide Window")
	}
}

// TestUnknownPinRejected: a Pin value outside the three policies is a
// configuration error, returned by both the batch engine and a stream
// session before anything runs, not a panic on the caller's goroutine
// when the pinning plan is laid out.
func TestUnknownPinRejected(t *testing.T) {
	spec := countSpec(4)
	spec.Splits = []int{8}
	cfg := testConfig(t, nil)
	cfg.Pin = mr.PinPolicy(7)
	if _, err := core.Run(spec, cfg); err == nil {
		t.Fatal("core.Run accepted Pin 7")
	}
	cfg.Stream = &mr.StreamSpec{Window: 1}
	if _, err := New(spec, cfg); err == nil {
		t.Fatal("stream.New accepted Pin 7")
	}
}

// TestGrantOutOfRangeRejected: a CPUGrant naming a CPU the machine lacks is
// a configuration error for every engine — the RAMR batch engine, Phoenix++
// and a stream session alike — returned before anything runs.
func TestGrantOutOfRangeRejected(t *testing.T) {
	spec := countSpec(4)
	spec.Splits = []int{8}
	cfg := testConfig(t, nil)
	cfg.Machine = topology.Flat(4)
	cfg.CPUGrant = []int{99}
	for _, engine := range []struct {
		name string
		run  func() error
	}{
		{"ramr", func() error { _, err := core.Run(spec, cfg); return err }},
		{"phoenix++", func() error { _, err := core.RunPhoenixContext(context.Background(), spec, cfg); return err }},
		{"stream", func() error {
			scfg := cfg
			scfg.Stream = &mr.StreamSpec{Window: 1}
			_, err := New(spec, scfg)
			return err
		}},
	} {
		if err := engine.run(); err == nil || !strings.Contains(err.Error(), "cpu 99 out of range") {
			t.Errorf("%s with CPUGrant [99] on %s: err = %v, want the grant rejected", engine.name, cfg.Machine.Name, err)
		}
	}
}
