package stream

import (
	"context"
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

// TestSealerWakesOnQuiescence: a seal stops at the first window whose panes
// have not quiesced, and the booking that quiesces them must seal it and
// everything due behind it. Window 1 is mapped and quiet before window 0's
// only split reaches a worker that stops mid-split; two Appends then move
// the watermark past windows 0 and 1, and each seal stops at window 0. When
// the worker lets go, both windows must seal with no further input — the
// booking that quiesced window 0 has to go on to window 1.
func TestSealerWakesOnQuiescence(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		before := runtime.NumGoroutine()
		var armed atomic.Bool
		entered, release := make(chan struct{}), make(chan struct{})
		cfg := testConfig(t, &mr.StreamSpec{Window: 1, Lateness: 1})
		cfg.Hooks = &mr.Hooks{MapEmit: func(int) {
			if armed.CompareAndSwap(true, false) {
				close(entered)
				<-release
			}
		}}
		p, err := New(countSpec(8), cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkFused(t, p)
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		appendAt := func(ts int64, splits int) {
			t.Helper()
			if _, err := p.Append(chunkOf(ts, splits, 10)); err != nil {
				t.Fatal(err)
			}
		}
		appendAt(1, 1) // window 1: mapped at once, nothing left to kick for it
		for p.Stats().Pending != 0 {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(2 * time.Millisecond) // the seal after the split
		armed.Store(true)
		appendAt(0, 1) // window 0: held inside a worker's split
		await(t, entered, "a worker to stop mid-split")
		appendAt(2, 0)                   // watermark 1: window 0 is due, its seal stops there
		time.Sleep(2 * time.Millisecond) // let it get there
		appendAt(3, 0)                   // watermark 2: window 1 is due; this seal stops at window 0 too
		time.Sleep(2 * time.Millisecond)
		if n := p.SealedCount(); n != 0 {
			t.Fatalf("%d windows sealed while window 0 was still being mapped", n)
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

// TestSealHandsOffWhileSealing: a change made while another goroutine seals
// is not lost. Window 0's OnSeal blocks on the Append goroutine that sealed
// it; meanwhile an Append moves the watermark past window 1 and a worker
// books window 1's last split, and both find the seal taken and return
// without waiting. When OnSeal returns, the sealing goroutine must look again
// and seal window 1 too, in order, with no further input.
func TestSealHandsOffWhileSealing(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		before := runtime.NumGoroutine()
		var armed atomic.Bool
		entered, release := make(chan struct{}), make(chan struct{})
		cfg := testConfig(t, &mr.StreamSpec{Window: 1, Lateness: 1})
		cfg.Hooks = &mr.Hooks{MapEmit: func(int) {
			if armed.CompareAndSwap(true, false) {
				close(entered)
				<-release
			}
		}}
		p, err := New(countSpec(8), cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkFused(t, p)
		sealing, unblock := make(chan struct{}), make(chan struct{})
		p.OnSeal = func(w *Window[int, uint64]) {
			if w.Index == 0 {
				close(sealing)
				<-unblock
			}
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
		appendAt(0, 1) // window 0: mapped at once
		waitIdle(t, p)
		armed.Store(true)
		appendAt(1, 1) // window 1: held inside a worker's split
		await(t, entered, "a worker to stop mid-split")
		type result struct {
			ts  int64
			err error
		}
		sealer := make(chan result, 1)
		go func() { // watermark 1: this Append seals window 0 and blocks in OnSeal
			ts, err := p.Append(chunkOf(2, 0, 0))
			sealer <- result{ts, err}
		}()
		await(t, sealing, "window 0's OnSeal")
		appendAt(3, 0) // watermark 2: window 1 is due, the seal is taken
		close(release)
		waitIdle(t, p) // window 1's last split is booked; its seal found the seal taken
		if n := p.SealedCount(); n != 1 {
			t.Fatalf("%d windows sealed while window 0's OnSeal held the seal, want 1", n)
		}
		close(unblock)
		if r := <-sealer; r.err != nil || r.ts != 2 {
			t.Fatalf("sealing Append = %d, %v; want tick 2", r.ts, r.err)
		}
		waitSealed(t, p, 2)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := p.Close(ctx); err != nil {
			t.Fatal(err)
		}
		ws := p.Windows()
		if len(ws) != 2 || ws[0].Index != 0 || ws[1].Index != 1 || ws[0].Elements != 10 || ws[1].Elements != 10 {
			t.Fatalf("sealed %+v, want windows 0 and 1 in order, 10 elements each", ws)
		}
		checkNoLeak(t, before)
	})
}
