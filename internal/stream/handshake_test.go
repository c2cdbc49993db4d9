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

// TestSealerWakesOnQuiescence: the sealer waits for a window to quiesce on
// the same kick channel that announces new sealable windows, so a kick can
// be spent inside the wait. Window 1 is mapped and quiet before window 0's
// only split reaches a worker that stops mid-split; the sealer is waiting on
// window 0 when an Append moves the watermark past window 1 and its kick is
// taken by that wait. When the worker lets go, both windows must seal with
// no further input — the sealer has to look again after each window it
// seals.
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
		time.Sleep(2 * time.Millisecond) // the kick after the split
		armed.Store(true)
		appendAt(0, 1) // window 0: held inside a worker's split
		await(t, entered, "a worker to stop mid-split")
		appendAt(2, 0)                   // watermark 1: the sealer starts waiting on window 0
		time.Sleep(2 * time.Millisecond) // let it get there
		appendAt(3, 0)                   // watermark 2: window 1 is due; the wait takes this kick
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
