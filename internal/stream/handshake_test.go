package stream

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ramr/internal/mr"
)

// atProcs runs f at GOMAXPROCS 1 and 2.
func atProcs(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f(t)
		})
	}
}

// TestParkedCombinersFoldEveryChunkAfterIdle: every chunk here is far
// shorter than a consume batch and is followed by a lull in which the
// resident combiners run out of work and park. Each window can seal only
// if the mappers flush their rings at the end of each split and that
// wakes the parked combiners to fold the short tail; a lost wake-up
// leaves a window unsealed for ever.
func TestParkedCombinersFoldEveryChunkAfterIdle(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		before := runtime.NumGoroutine()
		cfg := testConfig(t, &mr.StreamSpec{Window: 1})
		cfg.BatchSize = 200 // a chunk below is 20 pairs
		p, err := New(countSpec(8), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		const chunks = 6
		for ts := int64(0); ts < chunks; ts++ {
			if _, err := p.Append(chunkOf(ts, 2, 10)); err != nil {
				t.Fatal(err)
			}
			// Chunk ts moves the watermark past window ts-1.
			waitSealed(t, p, int(ts))
			time.Sleep(2 * time.Millisecond) // the lull: combiners go idle and park
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := p.Close(ctx); err != nil {
			t.Fatal(err)
		}
		ws := p.Windows()
		if len(ws) != chunks {
			t.Fatalf("%d windows sealed, want %d", len(ws), chunks)
		}
		for _, w := range ws {
			if w.Elements != 20 {
				t.Fatalf("window %d holds %d elements, want 20", w.Index, w.Elements)
			}
		}
		checkNoLeak(t, before)
	})
}

// TestParkedCombinerFoldsTailWhileMapperStaysBusy: the only mapper is never
// short of input — the next pane's split is queued before it finishes this
// one's, and then keeps it busy without emitting. The first pane's pairs,
// far fewer than a consume batch, must be folded and its window sealed all
// the same, not whenever a later split happens to complete a batch.
func TestParkedCombinerFoldsTailWhileMapperStaysBusy(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		before := runtime.NumGoroutine()
		begin, entered, hold := make(chan struct{}), make(chan struct{}), make(chan struct{})
		spec := countSpec(8)
		spec.Map = func(n int, emit func(int, uint64)) {
			if n < 0 { // the busy split: emits nothing until released
				close(entered)
				<-hold
				n = -n
			} else {
				<-begin
			}
			for e := 0; e < n; e++ {
				emit(e%8, 1)
			}
		}
		cfg := testConfig(t, &mr.StreamSpec{Window: 1})
		cfg.Mappers = 1
		cfg.BatchSize = 200
		p, err := New(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		for ts, n := range []int{10, -10} {
			if _, err := p.Append(Chunk[int]{Ts: int64(ts), Splits: []int{n}}); err != nil {
				t.Fatal(err)
			}
		}
		close(begin) // both splits are queued: the mapper will not run dry between them
		<-entered
		waitSealed(t, p, 1) // window 0, while the mapper sits in window 1's split
		close(hold)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := p.Close(ctx); err != nil {
			t.Fatal(err)
		}
		for _, w := range p.Windows() {
			if w.Elements != 10 {
				t.Fatalf("window %d holds %d elements, want 10", w.Index, w.Elements)
			}
		}
		if n := len(p.Windows()); n != 2 {
			t.Fatalf("%d windows sealed, want 2", n)
		}
		checkNoLeak(t, before)
	})
}

// TestCancelWakesParkedCombiners: cancelling an idle session, whose
// combiners are parked with no push ever coming, must still stop it.
func TestCancelWakesParkedCombiners(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		before := runtime.NumGoroutine()
		p, err := New(countSpec(8), testConfig(t, &mr.StreamSpec{Window: 1}))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Append(chunkOf(0, 2, 10)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond) // combiners fold the chunk, then park
		stopped := make(chan struct{})
		go func() {
			defer close(stopped)
			p.CancelWait()
		}()
		select {
		case <-stopped:
		case <-time.After(10 * time.Second):
			t.Fatal("cancel did not stop a session with parked combiners")
		}
		if err := p.Err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("err after cancel = %v, want context.Canceled", err)
		}
		checkNoLeak(t, before)
	})
}

// TestSealerWakesOnQuiescence: the sealer waits for a window to quiesce on
// the same kick channel that announces new sealable windows, so a kick can
// be spent inside the wait. Window 1 is folded and quiet before window 0's
// only batch reaches a slow combiner; the sealer is waiting on window 0
// when an Append moves the watermark past window 1 and its kick is taken
// by that wait. When the combiner lets go, both windows must seal with no
// further input — the sealer has to look again after each window it seals.
func TestSealerWakesOnQuiescence(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		before := runtime.NumGoroutine()
		var armed atomic.Bool
		var folds atomic.Int64
		entered, release := make(chan struct{}), make(chan struct{})
		cfg := testConfig(t, &mr.StreamSpec{Window: 1, Lateness: 1})
		cfg.Mappers = 1
		cfg.Hooks = &mr.Hooks{CombineBatch: func(int) {
			folds.Add(1)
			if armed.CompareAndSwap(true, false) {
				close(entered)
				<-release
			}
		}}
		p, err := New(countSpec(8), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		appendAt := func(ts int64, splits int) {
			t.Helper()
			if _, err := p.Append(chunkOf(ts, splits, 10)); err != nil {
				t.Fatal(err)
			}
		}
		appendAt(1, 1) // window 1: folded at once, nothing left to kick for it
		for folds.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(2 * time.Millisecond) // the fold itself and the kick after it
		armed.Store(true)
		appendAt(0, 1) // window 0: held inside the combiner
		<-entered
		appendAt(2, 0)                   // watermark 1: the sealer starts waiting on window 0
		time.Sleep(2 * time.Millisecond) // let it get there
		appendAt(3, 0)                   // watermark 2: window 1 is due; the wait takes this kick
		time.Sleep(2 * time.Millisecond)
		if n := p.SealedCount(); n != 0 {
			t.Fatalf("%d windows sealed while window 0 was still being folded", n)
		}
		close(release)
		waitSealed(t, p, 2)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := p.Close(ctx); err != nil {
			t.Fatal(err)
		}
		ws := p.Windows()
		if len(ws) != 2 || ws[0].Index != 0 || ws[1].Index != 1 {
			t.Fatalf("sealed %d windows, want windows 0 and 1 in order", len(ws))
		}
		for _, w := range ws {
			if w.Elements != 10 {
				t.Fatalf("window %d holds %d elements, want 10", w.Index, w.Elements)
			}
		}
		checkNoLeak(t, before)
	})
}
