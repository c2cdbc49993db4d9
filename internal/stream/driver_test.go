package stream

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ramr/internal/mr"
	"ramr/internal/obs"
	"ramr/internal/topology"
)

// A session runs core's one driver: its splits are dealt to the locality
// groups' deques in proportion to the workers each group holds, and a
// worker whose group runs dry steals, as a batch run's does. The tests
// below pin that, and the seal's one finish on sliding windows, where each
// window folds panes a later window still reads.

// onBothSockets returns cfg on the Haswell preset with one CPU granted on
// each socket: a fused pool of two workers, one per locality group.
func onBothSockets(cfg mr.Config) mr.Config {
	cfg.Machine, cfg.Pin, cfg.CPUGrant = topology.HaswellServer(), mr.PinRAMR, []int{0, 14}
	return cfg
}

// TestSessionStealsAcrossGroups: worker 0 stops inside its first split, and
// the other group's worker, held until then, drains its own deque and
// steals worker 0's queued splits. The books show the steals, every stolen
// split was executed remotely, each window equals the serial reference over
// its splits, and a traced session records no per-split span.
func TestSessionStealsAcrossGroups(t *testing.T) {
	before := runtime.NumGoroutine()
	const keys = 16
	cfg := onBothSockets(testConfig(t, &mr.StreamSpec{Window: 1}))
	cfg.Trace = obs.New("session")
	held, release := make(chan struct{}), make(chan struct{})
	var armed atomic.Bool
	armed.Store(true)
	cfg.Hooks = &mr.Hooks{
		MapEmit: func(w int) {
			if w == 0 && armed.CompareAndSwap(true, false) {
				close(held)
				<-release
			}
		},
		MapTask: func(w int) {
			if w != 0 {
				select {
				case <-held:
				case <-time.After(10 * time.Second):
				}
			}
		},
	}
	fast := &atomic.Bool{}
	fast.Store(true)
	p, err := New(mixSpec(keys, fast), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.drv.CPUs) != 2 {
		t.Fatalf("%d workers on a two-CPU grant, want 2", len(p.drv.CPUs))
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	chunks := [][]int{{120, 36, 80, 7, 44, 100, 8, 60}, {96, 12, 30}}
	if _, err := p.Append(Chunk[int]{Ts: 0, Splits: chunks[0]}); err != nil {
		t.Fatal(err)
	}
	await(t, held, "worker 0 to stop mid-split")
	for deadline := time.Now().Add(10 * time.Second); p.Stats().Pending != 1; {
		if time.Now().After(deadline) {
			t.Fatalf("pending = %d, want only worker 0's split", p.Stats().Pending)
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	if _, err := p.Append(Chunk[int]{Ts: 1, Splits: chunks[1]}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Close(ctx); err != nil {
		t.Fatal(err)
	}
	s := p.drv.Ledger.Totals().Steal
	if stolen := s.SocketTasks + s.RemoteTasks; stolen == 0 || stolen != s.RemoteExecuted {
		t.Fatalf("steal books %+v: want splits stolen, each executed remotely", s)
	}
	ws := p.Windows()
	if len(ws) != len(chunks) {
		t.Fatalf("%d windows sealed, want %d", len(ws), len(chunks))
	}
	for i, w := range ws {
		if got, want := fmt.Sprint(w.Pairs), referenceWindow(keys, chunks[i]); got != want {
			t.Errorf("window %d pairs %s, the reference over the same splits %s", w.Index, got, want)
		}
	}
	if evs := cfg.Trace.Events(); len(evs) != 0 {
		t.Fatalf("a traced session recorded %d spans (first %q), want none per split", len(evs), evs[0].Name)
	}
	checkNoLeak(t, before)
}

// TestSessionStealOffDrainsOneGroup: under StealOff, a grant confined to
// socket 0 leaves socket 1's group without a worker. No split may be dealt
// there, or Close would never drain: every window still seals, equal to the
// serial reference over its splits.
func TestSessionStealOffDrainsOneGroup(t *testing.T) {
	before := runtime.NumGoroutine()
	const keys = 16
	cfg := onBothSockets(testConfig(t, &mr.StreamSpec{Window: 1}))
	cfg.CPUGrant, cfg.Steal = []int{0, 1}, mr.StealOff
	p, err := New(mixSpec(keys, &atomic.Bool{}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	chunks := [][]int{{120, 36, 80, 7, 44}, {96, 12, 30}, {5}}
	for ts, c := range chunks {
		if _, err := p.Append(Chunk[int]{Ts: int64(ts), Splits: c}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	ws := p.Windows()
	if len(ws) != len(chunks) {
		t.Fatalf("%d windows sealed, want %d", len(ws), len(chunks))
	}
	for i, w := range ws {
		if got, want := fmt.Sprint(w.Pairs), referenceWindow(keys, chunks[i]); got != want {
			t.Errorf("window %d pairs %s, the reference over the same splits %s", w.Index, got, want)
		}
	}
	if s := p.drv.Ledger.Totals().Steal; s.SocketTasks+s.RemoteTasks != 0 {
		t.Fatalf("steal books %+v under StealOff", s)
	}
	checkNoLeak(t, before)
}

// TestSlidingWindowsMatchReference: W=3, S=1, on two fused workers that
// each map one split of every pane — each round of two takes waits until
// both workers are in it — so every worker holds every pane, and each seal
// folds panes that the next two windows still read. Each window's pairs
// must equal the serial reference over that window's splits.
func TestSlidingWindowsMatchReference(t *testing.T) {
	before := runtime.NumGoroutine()
	const keys, ticks = 16, 6
	cfg := testConfig(t, &mr.StreamSpec{Window: 3, Slide: 1})
	cfg.Mappers, cfg.Combiners = 1, 1
	var mu sync.Mutex
	round := make(chan struct{})
	arrived := 0
	var took [2]atomic.Int32
	cfg.Hooks = &mr.Hooks{MapTask: func(w int) {
		took[w].Add(1)
		mu.Lock()
		if arrived++; arrived%2 == 0 {
			close(round)
			round = make(chan struct{})
			mu.Unlock()
			return
		}
		wait := round
		mu.Unlock()
		select {
		case <-wait:
		case <-time.After(10 * time.Second):
		}
	}}
	fast := &atomic.Bool{}
	fast.Store(true)
	p, err := New(mixSpec(keys, fast), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	chunks := make([][]int, ticks)
	for ts := range chunks {
		chunks[ts] = []int{40 + 7*ts, 13 + 11*ts}
		if _, err := p.Append(Chunk[int]{Ts: int64(ts), Splits: chunks[ts]}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if a, b := took[0].Load(), took[1].Load(); a != ticks || b != ticks {
		t.Fatalf("workers took %d and %d splits, want one of every pane each (%d)", a, b, ticks)
	}
	ws := p.Windows()
	if len(ws) != ticks {
		t.Fatalf("%d windows sealed, want %d", len(ws), ticks)
	}
	for _, w := range ws {
		var splits []int
		for ts := w.Start; ts < min(w.End, ticks); ts++ {
			splits = append(splits, chunks[ts]...)
		}
		if got, want := fmt.Sprint(w.Pairs), referenceWindow(keys, splits); got != want {
			t.Errorf("window %d [%d,%d) pairs %s, the reference over its splits %s", w.Index, w.Start, w.End, got, want)
		}
	}
	checkNoLeak(t, before)
}
