package stream

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ramr/internal/container"
	"ramr/internal/core"
	"ramr/internal/mr"
	"ramr/internal/spsc"
	"ramr/internal/telemetry"
	"ramr/internal/topology"
)

// A session is always one pool of fused workers, sized to its grant, each
// folding what it maps into its own pane containers, and it builds no ring —
// also on a plan that puts a combiner on an SMT sibling of its mappers
// (core.Plan.ShipsPairs), where a batch run ships. The tests below pin the
// books a session keeps, the seal's exactness around a split a worker is
// still mapping, and the rule that keeps sessions fused.

// siblingPlan returns cfg on a plan whose batch run ships pairs: the paper's
// pinning on the Haswell server preset, granted CPU 0 and its SMT sibling
// 28, so the plan puts the combiner beside its mapper (a pin on a CPU the
// host lacks is ignored). A session on it is one fused pool all the same.
func siblingPlan(cfg mr.Config) mr.Config {
	cfg.Machine, cfg.Pin, cfg.CPUGrant = topology.HaswellServer(), mr.PinRAMR, []int{0, 28}
	return cfg
}

// placementArms are the two plans a session is put on: testConfig's machine
// without SMT, and a sibling plan, on which a batch run would ship. Both run
// one pool of fused workers.
var placementArms = []struct {
	name    string
	sibling bool
}{{"fused", false}, {"sibling", true}}

// place returns cfg on arm's plan.
func place(cfg mr.Config, sibling bool) mr.Config {
	if sibling {
		return siblingPlan(cfg)
	}
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

// checkFused fails the test unless p is one pool of fused workers.
func checkFused[S any, K comparable, V, R any](t *testing.T, p *Pipeline[S, K, V, R]) {
	t.Helper()
	if p.drv.Ship {
		t.Fatal("the session's pool ships pairs; a session is always fused")
	}
}

// checkBooks checks a stopped session's books against the pairs its windows
// hold (total) and the splits map workers took (mapperTakes): every split
// was run once, by a map worker or a combine worker, every pair was folded
// where it was made, and no ring traffic was booked.
func checkBooks[S any, K comparable, V, R any](t *testing.T, p *Pipeline[S, K, V, R], mapperTakes, total uint64) {
	t.Helper()
	checkFused(t, p)
	qs, _, h := core.Books(p.drv.Ledger.Totals())
	st := p.Stats()
	if mapperTakes+h.Tasks != uint64(st.Splits) || st.Elements != total {
		t.Errorf("map workers took %d + combine workers ran %d splits, want %d; %d elements emitted, windows hold %d",
			mapperTakes, h.Tasks, st.Splits, st.Elements, total)
	}
	if qs != (mr.QueueStats{}) || h.Pairs() != total {
		t.Errorf("queue %+v, help %+v; want no ring traffic and all %d pairs folded where made", qs, h, total)
	}
}

// TestConserveSiblingPlanSessionFuses: on a plan that puts a combiner on an
// SMT sibling of its mapper, a batch run ships every pair through a ring,
// but a session on the same plan builds no ring: its pool does not ship, the
// queue observer never fires, every pair is folded where it is made, and
// every window equals the serial reference over the same splits.
func TestConserveSiblingPlanSessionFuses(t *testing.T) {
	before := runtime.NumGoroutine()
	const keys = 16
	cfg := siblingPlan(testConfig(t, &mr.StreamSpec{Window: 1}))
	var observed, mapperTakes atomic.Uint64
	cfg.Hooks = &mr.Hooks{
		QueueObserver: func(int, bool, spsc.Stats) { observed.Add(1) },
		MapTask: func(w int) {
			if w < cfg.Mappers {
				mapperTakes.Add(1)
			}
		},
	}
	fast := &atomic.Bool{}
	fast.Store(true)
	spec := mixSpec(keys, fast)
	p, err := New(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkFused(t, p)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	chunks := [][]int{{120, 36, 80, 7}, {44, 100, 8, 60, 3}, {96, 12}}
	for ts, c := range chunks {
		if _, err := p.Append(Chunk[int]{Ts: int64(ts), Splits: c}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if n := observed.Load(); n != 0 {
		t.Fatalf("queue observer fired %d times for a session; want no ring", n)
	}
	ws := p.Windows()
	if len(ws) != len(chunks) {
		t.Fatalf("%d windows sealed, want %d", len(ws), len(chunks))
	}
	var total uint64
	for i, w := range ws {
		total += w.Elements
		if got, want := fmt.Sprint(w.Pairs), referenceWindow(keys, chunks[i]); got != want {
			t.Errorf("window %d pairs %s, the reference over the same splits %s", w.Index, got, want)
		}
	}
	checkBooks(t, p, mapperTakes.Load(), total)
	checkNoLeak(t, before)

	// The batch body on the same plan is the paper's pipeline.
	cfg.Stream = nil
	for _, c := range chunks {
		spec.Splits = append(spec.Splits, c...)
	}
	res, err := core.Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if qs := res.QueueStats; observed.Load() == 0 || qs.Pushes != total || qs.Pops != total || res.Help.Pairs() != 0 {
		t.Fatalf("batch run on the sibling plan: %d rings observed, queue %+v, help %+v; want all %d pairs shipped",
			observed.Load(), qs, res.Help, total)
	}
}

// mixSpec is countSpec with values that differ per element, so two runs
// agree on a window only if they folded the same multiset of pairs. Map
// emits slowly, one slab at a time, until slowUntil fires: the map-bound
// shape conservation is for.
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

// referenceWindow is the serial reference over mixSpec on one window's
// splits: what the window must hold.
func referenceWindow(keys int, splits []int) string {
	spec := mixSpec(keys, &atomic.Bool{})
	spec.Splits = splits
	return fmt.Sprint(mr.Reference(spec))
}

// TestConserveMapBoundSession: one map worker and one combine worker,
// splits queued far faster than they are mapped. On either plan the combine
// worker maps some of them, also after a lull in which it found the task
// channel empty; each window equals the serial reference over the same
// splits, and the session's books close exactly.
func TestConserveMapBoundSession(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		for _, arm := range placementArms {
			t.Run(arm.name, func(t *testing.T) {
				before := runtime.NumGoroutine()
				const keys = 16
				var helped atomic.Bool
				cfg := place(testConfig(t, &mr.StreamSpec{Window: 1}), arm.sibling)
				cfg.Mappers = 1
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
					// A lull after the first chunk: every worker finds the
					// channel empty. The combine worker must map again once
					// more chunks are queued.
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
					if got, want := fmt.Sprint(w.Pairs), referenceWindow(keys, chunks[i]); got != want {
						t.Errorf("window %d pairs %s, the reference over the same splits %s", w.Index, got, want)
					}
				}
				if !helped.Load() {
					t.Fatalf("the combine worker mapped nothing after the lull (help %+v)", p.HelpStats())
				}
				checkBooks(t, p, mapperTakes.Load(), total)
				checkNoLeak(t, before)
			})
		}
	})
}

// TestConserveSealWaitsForWorkerMidSplit: the seal's quiesce check must
// count a split a worker is still mapping. Window 0 gets two splits on two
// workers; the one mapping the long split stops in the middle of it, after
// the other split is done. Then the watermark passes window 0 — and the
// window must stay unsealed until the paused worker resumes, then seal with
// both splits. The paused worker may be a combine worker, whose pairs are
// already in its own pane container; the seal must wait all the same.
func TestConserveSealWaitsForWorkerMidSplit(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		for _, arm := range placementArms {
			t.Run(arm.name, func(t *testing.T) {
				before := runtime.NumGoroutine()
				longIn, paused, resume := make(chan struct{}), make(chan struct{}), make(chan struct{})
				spec := countSpec(8)
				spec.Map = func(n int, emit func(int, uint64)) {
					if n == 4 { // the short split: begin once another worker has the long one
						select {
						case <-longIn:
						case <-time.After(10 * time.Second):
						}
					} else {
						close(longIn)
					}
					for e := 0; e < n; e++ {
						emit(e%8, 1)
						if n == 20 && e == 2 {
							close(paused)
							<-resume
						}
					}
				}
				cfg := place(testConfig(t, &mr.StreamSpec{Window: 1}), arm.sibling)
				var mapperTakes atomic.Uint64
				cfg.Hooks = &mr.Hooks{MapTask: func(w int) {
					if w < cfg.Mappers {
						mapperTakes.Add(1)
					}
				}}
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
				await(t, paused, "a worker to stop mid-split")
				for deadline := time.Now().Add(10 * time.Second); p.Stats().Pending != 1; {
					if time.Now().After(deadline) {
						t.Fatalf("pending = %d, want only the paused split", p.Stats().Pending)
					}
					time.Sleep(100 * time.Microsecond)
				}
				if _, err := p.Append(Chunk[int]{Ts: 1}); err != nil {
					t.Fatal(err)
				}
				time.Sleep(5 * time.Millisecond)
				if n := p.SealedCount(); n != 0 {
					t.Fatalf("%d windows sealed while a worker was still mapping window 0", n)
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
				checkBooks(t, p, mapperTakes.Load(), 24)
				checkNoLeak(t, before)
			})
		}
	})
}

// TestConserveSessionBuildsNoRing: with no grant, a session is
// mappers+combiners fused workers and nothing else. No ring is built, so the
// queue observer never fires and no ring traffic is booked;
// the ledger has one shard per worker, M of them mappers and C combiners;
// the Map hooks see ids in [0, M+C); and every window equals the serial
// reference over the same splits.
func TestConserveSessionBuildsNoRing(t *testing.T) {
	before := runtime.NumGoroutine()
	const keys = 16
	cfg := testConfig(t, &mr.StreamSpec{Window: 1})
	cfg.Mappers, cfg.Combiners = 3, 2
	cfg.Telemetry = telemetry.New()
	var observed, outside, mapperTakes atomic.Uint64
	cfg.Hooks = &mr.Hooks{
		QueueObserver: func(int, bool, spsc.Stats) { observed.Add(1) },
		MapTask: func(w int) {
			if w < 0 || w >= cfg.Mappers+cfg.Combiners {
				outside.Add(1)
			}
			if w < cfg.Mappers {
				mapperTakes.Add(1)
			}
		},
		MapEmit: func(w int) {
			if w < 0 || w >= cfg.Mappers+cfg.Combiners {
				outside.Add(1)
			}
		},
	}
	fast := &atomic.Bool{}
	fast.Store(true)
	p, err := New(mixSpec(keys, fast), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	chunks := [][]int{{120, 36, 80, 7}, {44, 100, 8, 60, 3}, {96, 12}}
	for ts, c := range chunks {
		if _, err := p.Append(Chunk[int]{Ts: int64(ts), Splits: c}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if n := observed.Load(); n != 0 || p.drv.Ship {
		t.Fatalf("queue observer fired %d times, ships=%v; want no ring", n, p.drv.Ship)
	}
	if n := outside.Load(); n != 0 {
		t.Fatalf("%d hook calls from a worker id outside [0, %d)", n, cfg.Mappers+cfg.Combiners)
	}
	rep := cfg.Telemetry.EndRun(nil)
	roles := map[string]int{}
	for _, w := range rep.Workers {
		roles[w.Role]++
	}
	if len(rep.Workers) != cfg.Mappers+cfg.Combiners || roles["mapper"] != cfg.Mappers || roles["combiner"] != cfg.Combiners || rep.Totals.Pushes+rep.Totals.Pops != 0 {
		t.Fatalf("ledger shards by role %v, %d pushed, %d popped; want %d mappers, %d combiners and no ring", roles, rep.Totals.Pushes, rep.Totals.Pops, cfg.Mappers, cfg.Combiners)
	}
	ws := p.Windows()
	if len(ws) != len(chunks) {
		t.Fatalf("%d windows sealed, want %d", len(ws), len(chunks))
	}
	var total uint64
	for i, w := range ws {
		total += w.Elements
		if got, want := fmt.Sprint(w.Pairs), referenceWindow(keys, chunks[i]); got != want {
			t.Errorf("window %d pairs %s, the reference over the same splits %s", w.Index, got, want)
		}
	}
	checkBooks(t, p, mapperTakes.Load(), total)
	checkNoLeak(t, before)
}

// TestFusedPoolFitsGrant: a fused session never has more workers than its
// grant has CPUs. A one-CPU grant with explicit counts of four mappers and
// two combiners runs exactly one worker, even on an SMT machine under the
// paper's pinning: the ledger holds one shard, the Map hooks see only
// worker 0, no ring is built, a seal reduces on one goroutine, and
// every window equals the serial reference over the same splits.
func TestFusedPoolFitsGrant(t *testing.T) {
	before := runtime.NumGoroutine()
	const keys = 16
	cfg := testConfig(t, &mr.StreamSpec{Window: 1})
	cfg.Mappers, cfg.Combiners = 4, 2
	cfg.Machine, cfg.Pin, cfg.CPUGrant = topology.HaswellServer(), mr.PinRAMR, []int{0}
	cfg.Telemetry = telemetry.New()
	var observed, outside atomic.Uint64
	cfg.Hooks = &mr.Hooks{
		QueueObserver: func(int, bool, spsc.Stats) { observed.Add(1) },
		MapTask: func(w int) {
			if w != 0 {
				outside.Add(1)
			}
		},
	}
	p, err := New(mixSpec(keys, &atomic.Bool{}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.drv.Ship || len(p.drv.CPUs) != 1 || p.drv.Width != 1 {
		t.Fatalf("ships %v, %d workers, reduce width %d; want one fused worker", p.drv.Ship, len(p.drv.CPUs), p.drv.Width)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	chunks := [][]int{{120, 36, 80, 7}, {44, 100, 8}}
	for ts, c := range chunks {
		if _, err := p.Append(Chunk[int]{Ts: int64(ts), Splits: c}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if n := observed.Load(); n != 0 || p.drv.Ship {
		t.Fatalf("queue observer fired %d times, ships=%v; want no ring", n, p.drv.Ship)
	}
	if n := outside.Load(); n != 0 {
		t.Fatalf("%d splits mapped by a worker other than 0", n)
	}
	if rep := cfg.Telemetry.EndRun(nil); len(rep.Workers) != 1 {
		t.Fatalf("%d ledger shards on a one-CPU grant, want 1", len(rep.Workers))
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
	checkNoLeak(t, before)
}

// TestConserveSessionStepAllocatesNothing: a fused worker's step on a split
// — core's one step: point its container at the split's pane, map, and the
// session's booking of the pane — allocates nothing once the pane's
// container exists, on a worker of each role, with the pane changing on
// every step.
func TestConserveSessionStepAllocatesNothing(t *testing.T) {
	cfg := testConfig(t, &mr.StreamSpec{Window: 1})
	p, err := New(countSpec(8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for pane := int64(0); pane < 2; pane++ {
		p.paneFor(pane).splitsIn.Add(1000)
	}
	split := []int{32}
	for _, w := range []int{0, cfg.Mappers} {
		p.drv.RunWorker(context.Background(), w, func(w int, lane *core.Lane[container.KV[int, uint64]], _ *telemetry.Worker) {
			step, n := p.drv.Step(w, lane, p.book), 0
			if allocs := testing.AllocsPerRun(100, func() {
				step(core.Task[int]{Splits: split, Pane: int64(n % 2)})
				n++
			}); allocs != 0 {
				t.Errorf("worker %d's step allocates %.1f times", w, allocs)
			}
		})
	}
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if h := p.HelpStats(); h.Tasks != 101 || h.CombinerPairs != 101*32 || h.MapperPairs != 101*32 {
		t.Fatalf("help %+v: want 101 steps of 32 pairs on each worker", h)
	}
}

// TestUninstrumentedSessionReadsLive: a session started without a Telemetry
// keeps the same books as one with a Telemetry, and they are live — what its
// combine worker folded shows in HelpStats while the session still runs,
// not only once it has stopped.
func TestUninstrumentedSessionReadsLive(t *testing.T) {
	for _, arm := range placementArms {
		t.Run(arm.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			var fast atomic.Bool
			cfg := place(testConfig(t, &mr.StreamSpec{Window: 1}), arm.sibling)
			cfg.Mappers = 1
			p, err := New(mixSpec(16, &fast), cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkFused(t, p)
			if err := p.Start(); err != nil {
				t.Fatal(err)
			}
			for ts, c := range [][]int{{120, 36, 80}, {44, 100, 8, 60}} {
				if _, err := p.Append(Chunk[int]{Ts: int64(ts), Splits: c}); err != nil {
					t.Fatal(err)
				}
			}
			live := func(h mr.HelpStats) bool { return h.Tasks > 0 && h.CombinerPairs > 0 }
			for deadline := time.Now().Add(10 * time.Second); !live(p.HelpStats()); {
				if time.Now().After(deadline) {
					t.Fatalf("live session reads help %+v: want its folds before Close", p.HelpStats())
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
		})
	}
}
