package stream

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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
