// Package stream is the resident streaming runtime: the paper's decoupled
// map/combine pipeline (internal/core) turned into a long-lived session
// that absorbs input chunks over time and emits per-window snapshot
// results without ever tearing its workers down.
//
// The batch engine's building blocks are reused wholesale — the pipeline
// kernel itself (core.Lane on every mapper, core.StartCombiners' consume
// loop on every combiner, over a combiner pool nobody resizes), per-mapper
// SPSC rings (internal/spsc), private combiner containers
// (internal/container), the contention-aware pinning plan
// (core.BuildPlanOn), live telemetry and the AIMD tuner — but the
// lifecycle inverts: instead
// of "partition once, run to drain, merge once", mappers block on a task
// channel fed by Append, combiners fold into per-pane containers keyed by
// event time, and a sealer goroutine merges, reduces and publishes each
// window the moment the watermark passes it. In-node combining is what
// makes this cheap: the combiner container already is an incremental
// cache of the window's state, so a seal only merges C small containers,
// never replays input.
//
// Windowing model (see DESIGN.md §14): every chunk carries an event-time
// tick; window n covers ticks [n*Slide, n*Slide+Window); state is sliced
// into Slide-sized panes so sliding windows share panes instead of
// duplicating folds; the watermark is maxTick-Lateness and window n seals
// once n*Slide+Window <= watermark. Sealing is exact, not best-effort: a
// window is merged only after every split routed to its panes has been
// mapped AND every pair those splits pushed has been folded, tracked by
// per-pane conservation counters (splits in/done, pairs pushed/folded).
package stream

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ramr/internal/container"
	"ramr/internal/core"
	"ramr/internal/mr"
	"ramr/internal/spsc"
	"ramr/internal/telemetry"
)

// TsAuto asks Append to assign the next tick after the highest seen.
const TsAuto int64 = -1

// ErrClosed reports an Append or Close on a session already closed to
// new input.
var ErrClosed = errors.New("stream: session closed to new input")

// BackpressureError rejects an Append that would exceed the pending
// bound. RetryAfter is the suggested client backoff, derived from how
// deep the backlog runs and from the SPSC failed-push rate (mappers
// sleeping on full rings mean the combiners are the bottleneck, so
// draining will take longer).
type BackpressureError struct {
	RetryAfter time.Duration
	Pending    int
	Limit      int
}

func (e *BackpressureError) Error() string {
	return fmt.Sprintf("stream: backpressure: %d splits pending of %d allowed; retry after %s",
		e.Pending, e.Limit, e.RetryAfter)
}

// LateChunkError rejects a chunk whose tick is already behind the
// watermark: its window may have sealed, and silently folding it would
// break the sealed snapshots' immutability.
type LateChunkError struct {
	Ts        int64
	Watermark int64
}

func (e *LateChunkError) Error() string {
	return fmt.Sprintf("stream: chunk tick %d is behind the watermark %d (increase Lateness to admit older data)", e.Ts, e.Watermark)
}

// Chunk is one batch of input splits appended to a resident pipeline.
type Chunk[S any] struct {
	// Ts is the chunk's event-time tick; TsAuto assigns maxTick+1.
	Ts int64
	// Splits carry the payload, mapped by the resident mapper pool.
	Splits []S
}

// Window is one sealed window's immutable snapshot result.
type Window[K comparable, R any] struct {
	// Index is the window number n; the window covers event-time ticks
	// [Start, End) = [n*Slide, n*Slide+Window).
	Index, Start, End int64
	// Pairs is the reduced, sorted per-key output of the window.
	Pairs []mr.Pair[K, R]
	// Elements counts the intermediate pairs folded into the window —
	// the conservation figure: summed over tumbling windows it equals
	// the total pairs emitted by Map.
	Elements uint64
	// Splits and Chunks count the inputs routed to the window's panes
	// (for sliding windows a chunk lands in every window sharing its
	// pane, so these sum above the session totals).
	Splits int64
	Chunks int64
	// OpenedAt/SealedAt bracket the window's wall-clock life: first
	// append into one of its panes to seal time.
	OpenedAt time.Time
	SealedAt time.Time
}

// task is one split routed to a pane, flowing coordinator → mapper.
type task[S any] struct {
	split S
	pane  int64
}

// streamPair is an intermediate pair tagged with its destination pane,
// flowing mapper → combiner through the SPSC rings.
type streamPair[K comparable, V any] struct {
	pane int64
	kv   container.KV[K, V]
}

// paneState tracks one pane's conservation counters. A window is
// quiescent — safe to merge — once, for every pane it spans,
// splitsDone == splitsIn and folded == pushed. Ordering guarantees the
// check is sound: a mapper flushes its emit slab (making the pairs
// visible to pushed's reader via the ring) and adds to pushed BEFORE
// adding to splitsDone, and splitsIn for a sealable pane is frozen
// because Append rejects ticks behind the watermark.
type paneState struct {
	pane        int64
	splitsIn    atomic.Int64
	splitsDone  atomic.Int64
	pushed      atomic.Uint64
	folded      atomic.Uint64
	chunks      atomic.Int64
	firstAppend time.Time
}

// combinerState is one combiner's private per-pane container map. The
// combiner goroutine is the only writer of the containers; the mutex
// serializes map access (pane creation, and the sealer's merge walk)
// and is taken only when switching panes or sealing, never per pair.
type combinerState[K comparable, V any] struct {
	mu    sync.Mutex
	panes map[int64]container.Container[K, V]
}

// container returns (creating if needed) the combiner's container for a
// pane.
func (cs *combinerState[K, V]) container(pane int64, newC container.Factory[K, V]) container.Container[K, V] {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	c, ok := cs.panes[pane]
	if !ok {
		c = newC()
		cs.panes[pane] = c
	}
	return c
}

// Stats is a point-in-time snapshot of a live pipeline.
type Stats struct {
	Chunks        int64  `json:"chunks"`
	Splits        int64  `json:"splits"`
	Elements      uint64 `json:"elements"`
	Pending       int64  `json:"pending"`
	MaxPending    int    `json:"max_pending"`
	MaxTs         int64  `json:"max_ts"`
	Watermark     int64  `json:"watermark"`
	Sealed        int    `json:"windows_sealed"`
	Backpressured uint64 `json:"backpressured"`
	LateRejected  uint64 `json:"late_rejected"`
	// WatermarkLag is the wall-clock age of the oldest unsealed pane
	// holding data — how far result visibility trails ingestion.
	WatermarkLag time.Duration `json:"watermark_lag"`
	Closed       bool          `json:"closed"`
}

// Pipeline is one resident streaming session over a typed job spec. New
// builds it, Start spawns the worker pools, Append feeds it, Close
// drains and seals everything; the mapper and combiner goroutines live
// for the whole session, across every window.
type Pipeline[S any, K comparable, V, R any] struct {
	spec *mr.Spec[S, K, V, R]
	cfg  mr.Config
	win  mr.StreamSpec // resolved

	mappers   int
	combiners int
	plan      core.Plan
	queues    []*spsc.Queue[streamPair[K, V]]
	gates     []*spsc.Gate // per combiner: where it parks between chunks
	mirrors   []*telemetry.QueueMirror
	combs     []*combinerState[K, V]
	tel       *telemetry.Telemetry
	ownTel    bool
	batchA    atomic.Int64
	driver    *core.TunerDriver

	// OnSeal, when set before Start, is invoked from the sealer
	// goroutine after each window is published (service wires per-window
	// trace spans and metrics through it).
	OnSeal func(*Window[K, R])

	taskCh  chan task[S]
	pending atomic.Int64
	maxTs   atomic.Int64 // highest tick seen; -1 before the first chunk

	appendMu sync.Mutex
	closed   bool

	paneMu sync.Mutex
	panes  map[int64]*paneState

	winMu    sync.Mutex
	windows  map[int64]*Window[K, R]
	order    []int64
	maxPane  int64 // highest pane that ever held data; -1 initially
	sealWake chan struct{}

	chunks        atomic.Int64
	splits        atomic.Int64
	elements      atomic.Uint64
	backpressured atomic.Uint64
	lateRejected  atomic.Uint64

	firstErr mr.FirstError
	abort    atomic.Bool
	dying    chan struct{} // closed on first failure/cancel
	dieOnce  sync.Once

	flushing   atomic.Bool
	flushCh    chan struct{}
	mapWG      sync.WaitGroup
	combWG     sync.WaitGroup
	sealerDone chan struct{}
	stopped    chan struct{} // closed when every goroutine has exited
	started    bool
	startAt    time.Time

	finalMu    sync.Mutex
	finalQueue mr.QueueStats
}

// New validates the spec and config and builds an unstarted pipeline.
// cfg.Stream must be set; cfg.Splits on the spec is ignored (input
// arrives via Append).
func New[S any, K comparable, V, R any](spec *mr.Spec[S, K, V, R], cfg mr.Config) (*Pipeline[S, K, V, R], error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Stream == nil {
		return nil, errors.New("stream: Config.Stream is required for a resident pipeline")
	}
	machine := cfg.ResolveMachine()
	if err := core.ValidateGrant(machine, cfg.CPUGrant); err != nil {
		return nil, err
	}
	win := cfg.Stream.Resolved()
	mappers := cfg.Mappers
	combiners := cfg.NumCombiners()
	p := &Pipeline[S, K, V, R]{
		spec:       spec,
		cfg:        cfg,
		win:        win,
		mappers:    mappers,
		combiners:  combiners,
		plan:       core.BuildPlanOn(machine, cfg.CPUGrant, mappers, combiners, cfg.Pin),
		tel:        cfg.Telemetry,
		taskCh:     make(chan task[S], win.MaxPending),
		panes:      make(map[int64]*paneState),
		windows:    make(map[int64]*Window[K, R]),
		sealWake:   make(chan struct{}, 1),
		flushCh:    make(chan struct{}),
		dying:      make(chan struct{}),
		sealerDone: make(chan struct{}),
		stopped:    make(chan struct{}),
	}
	p.maxTs.Store(-1)
	p.maxPane = -1
	batch := cfg.BatchSize
	if batch > cfg.QueueCapacity {
		batch = cfg.QueueCapacity
	}
	p.batchA.Store(int64(batch))
	if p.tel == nil && cfg.Tuner != nil {
		// The tuner needs the sampler as its epoch clock even when the
		// caller wants no report.
		p.tel = telemetry.New()
		p.ownTel = true
	}
	for i := 0; i < mappers; i++ {
		q, err := spsc.New[streamPair[K, V]](cfg.QueueCapacity, cfg.Wait)
		if err != nil {
			return nil, err
		}
		p.queues = append(p.queues, q)
	}
	for j := 0; j < combiners; j++ {
		p.combs = append(p.combs, &combinerState[K, V]{panes: make(map[int64]container.Container[K, V])})
		p.gates = append(p.gates, spsc.NewGate())
	}
	return p, nil
}

// Start spawns the resident mapper and combiner pools and the sealer.
// The workers live until Close or Cancel; no per-window restarts.
func (p *Pipeline[S, K, V, R]) Start() error {
	p.appendMu.Lock()
	defer p.appendMu.Unlock()
	if p.started {
		return errors.New("stream: pipeline already started")
	}
	p.started = true
	p.startAt = time.Now()
	if p.tel != nil {
		p.tel.BeginRun("stream")
		p.mirrors = make([]*telemetry.QueueMirror, len(p.queues))
		for i, q := range p.queues {
			p.mirrors[i] = p.tel.RegisterQueue("mapper-"+strconv.Itoa(i), q)
		}
	}
	if p.cfg.Tuner != nil {
		p.driver = p.startTuner()
	}
	// The combiner pool is the batch engine's, split over the mappers in
	// index order (what the plan pinned by) and never resized: handing
	// rings between combiners mid-session would need an ownership protocol
	// spanning windows.
	order := make([]int, p.mappers)
	for i := range order {
		order[i] = i
	}
	core.StartCombiners(context.Background(), &p.combWG, core.Combiners[streamPair[K, V]]{
		Engine:   "stream",
		Queues:   p.queues,
		Gates:    p.gates,
		Mirrors:  p.mirrors,
		Order:    order,
		Active:   p.combiners,
		CPUs:     p.plan.CombinerCPU,
		Tel:      p.tel,
		Hooks:    p.cfg.Hooks,
		Batch:    func() int { return int(p.batchA.Load()) },
		Apply:    p.foldInto,
		Abort:    p.abort.Load,
		Fail:     p.fail,
		Progress: p.kickSealer,
	})
	for i := 0; i < p.mappers; i++ {
		p.mapWG.Add(1)
		go p.runMapper(i)
	}
	go p.sealLoop()
	// The janitor turns "every worker exited" into the stopped signal,
	// for both the orderly Close path and the Cancel/failure path.
	go func() {
		p.mapWG.Wait()
		p.combWG.Wait()
		<-p.sealerDone
		if p.driver != nil {
			p.driver.Stop()
		}
		var qs mr.QueueStats
		for _, q := range p.queues {
			qs.Add(q.Snapshot())
		}
		p.finalMu.Lock()
		p.finalQueue = qs
		p.finalMu.Unlock()
		if p.tel != nil {
			p.tel.Stop()
		}
		close(p.stopped)
	}()
	return nil
}

// fail records the session's first error and trips the abort path:
// mappers stop taking tasks, combiners (woken if parked) switch to
// discard-draining so producers blocked on full rings unwedge, the
// sealer exits.
func (p *Pipeline[S, K, V, R]) fail(err error) {
	p.firstErr.Set(err)
	p.abort.Store(true)
	p.dieOnce.Do(func() {
		close(p.dying)
		for _, g := range p.gates {
			g.Wake()
		}
	})
}

// Cancel aborts the session without draining.
func (p *Pipeline[S, K, V, R]) Cancel() { p.fail(context.Canceled) }

// CancelWait is Cancel plus waiting for every worker to exit.
func (p *Pipeline[S, K, V, R]) CancelWait() {
	p.Cancel()
	<-p.stopped
}

// Done is closed once every session goroutine has exited (after Close,
// Cancel, or an internal failure).
func (p *Pipeline[S, K, V, R]) Done() <-chan struct{} { return p.stopped }

// Err returns the session's first error: nil after a clean Close,
// context.Canceled after Cancel, the mr.PanicError after a worker panic.
func (p *Pipeline[S, K, V, R]) Err() error { return p.firstErr.Get() }

// watermark returns maxTs - Lateness (negative before enough ticks).
func (p *Pipeline[S, K, V, R]) watermark() int64 {
	return p.maxTs.Load() - p.win.Lateness
}

// Append admits one chunk: its splits are routed to the pane of its
// tick and queued for the resident mappers. It returns the tick the
// chunk was assigned. Errors: BackpressureError when the pending bound
// is hit, LateChunkError for ticks behind the watermark, ErrClosed
// after Close, or the session's fatal error.
func (p *Pipeline[S, K, V, R]) Append(c Chunk[S]) (int64, error) {
	p.appendMu.Lock()
	defer p.appendMu.Unlock()
	if err := p.firstErr.Get(); err != nil {
		return 0, err
	}
	if p.closed || !p.started {
		if !p.started {
			return 0, errors.New("stream: pipeline not started")
		}
		return 0, ErrClosed
	}
	ts := c.Ts
	if ts < 0 {
		ts = p.maxTs.Load() + 1
	}
	if wm := p.watermark(); ts < wm {
		p.lateRejected.Add(1)
		return 0, &LateChunkError{Ts: ts, Watermark: wm}
	}
	n := len(c.Splits)
	if pend := int(p.pending.Load()); pend+n > p.win.MaxPending {
		p.backpressured.Add(1)
		return 0, &BackpressureError{
			RetryAfter: p.retryAfter(pend),
			Pending:    pend,
			Limit:      p.win.MaxPending,
		}
	}
	pane := ts / p.win.Slide
	if n > 0 {
		ps := p.paneFor(pane)
		ps.splitsIn.Add(int64(n))
		ps.chunks.Add(1)
		p.splits.Add(int64(n))
		p.pending.Add(int64(n))
	}
	p.chunks.Add(1)
	if ts > p.maxTs.Load() {
		p.maxTs.Store(ts)
	}
	// The channel's capacity is MaxPending and the pending reservation
	// above bounds in-flight tasks by it, so these sends cannot block.
	for _, s := range c.Splits {
		p.taskCh <- task[S]{split: s, pane: pane}
	}
	p.kickSealer()
	return ts, nil
}

// retryAfter derives the backpressure hint: a base term growing with the
// backlog fraction, plus a term for the SPSC failed-push rate (producers
// already sleeping on full rings drain slower), clamped to [50ms, 2s].
func (p *Pipeline[S, K, V, R]) retryAfter(pending int) time.Duration {
	frac := float64(pending) / float64(p.win.MaxPending)
	d := time.Duration(frac * float64(500*time.Millisecond))
	if p.tel != nil {
		c := p.tel.CountersNow()
		if tot := c.Pushes + c.FailedPush; tot > 0 {
			d += time.Duration(float64(c.FailedPush) / float64(tot) * float64(500*time.Millisecond))
		}
	}
	if d < 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

// paneFor returns (creating if needed) the pane's counter state.
func (p *Pipeline[S, K, V, R]) paneFor(pane int64) *paneState {
	p.paneMu.Lock()
	defer p.paneMu.Unlock()
	ps, ok := p.panes[pane]
	if !ok {
		ps = &paneState{pane: pane, firstAppend: time.Now()}
		p.panes[pane] = ps
		if pane > p.maxPane {
			p.maxPane = pane
		}
	}
	return ps
}

// lookupPane returns the pane's state without creating it.
func (p *Pipeline[S, K, V, R]) lookupPane(pane int64) *paneState {
	p.paneMu.Lock()
	defer p.paneMu.Unlock()
	return p.panes[pane]
}

// kickSealer nudges the sealer without blocking (the channel has one
// slot; a pending kick already covers this update).
func (p *Pipeline[S, K, V, R]) kickSealer() {
	select {
	case p.sealWake <- struct{}{}:
	default:
	}
}

// runMapper is one resident map worker: take a task, run Map into the
// worker's lane (pairs tagged with the task's pane), publish the
// conservation counts, repeat until the task channel closes (Close) or the
// session dies.
func (p *Pipeline[S, K, V, R]) runMapper(i int) {
	defer p.mapWG.Done()
	q := p.queues[i]
	lane := core.NewLane(q, p.cfg.EmitBatch, i, p.cfg.Hooks)
	lane.Run(context.Background(), "stream", p.plan.MapperCPU[i], p.tel, p.fail, func(tw *telemetry.Worker) {
		var pane int64
		emit := core.HookEmit(lane, func(k K, v V) {
			core.Emit(lane, streamPair[K, V]{pane: pane, kv: container.KV[K, V]{K: k, V: v}})
		})
		for {
			select {
			case <-p.dying:
				return
			case t, ok := <-p.taskCh:
				if !ok {
					return
				}
				// An aborting session must not run user code on queued
				// tasks; combiners are discarding anyway.
				if p.abort.Load() {
					p.pending.Add(-1)
					continue
				}
				pane = t.pane
				lane.BeginTask()
				p.spec.Map(t.split, emit)
				emitted := lane.EndTask()
				// Under sustained load combiners wait for full batches
				// (§IV-C), but this split's pane cannot seal until its last
				// pair is folded, and the next full batch may be a long way
				// off — this mapper may go idle, or be handed a slow or sparse
				// split. Have the combiner fold what the ring holds now.
				q.Flush()
				// Order matters for the seal quiesce check: pairs become
				// visible (EndTask's flush, pushed) before the split counts
				// done.
				ps := p.lookupPane(t.pane)
				ps.pushed.Add(emitted)
				ps.splitsDone.Add(1)
				p.elements.Add(emitted)
				p.pending.Add(-1)
				tw.SetState(telemetry.StateIdle)
				p.kickSealer()
			}
		}
	})
}

// foldInto returns combiner j's fold: each consumed ring segment is split
// into pane-tagged runs, and each run goes into that pane's private
// container and onto its folded count.
func (p *Pipeline[S, K, V, R]) foldInto(j int) func([]streamPair[K, V]) {
	cs := p.combs[j]
	scratch := make([]container.KV[K, V], 0, int(p.batchA.Load()))
	curPane := int64(math.MinInt64)
	var curC container.Container[K, V]
	var curPS *paneState
	return func(seg []streamPair[K, V]) {
		for lo := 0; lo < len(seg); {
			pane := seg[lo].pane
			hi := lo + 1
			for hi < len(seg) && seg[hi].pane == pane {
				hi++
			}
			if pane != curPane || curC == nil {
				curC = cs.container(pane, p.spec.NewContainer)
				curPS = p.paneFor(pane)
				curPane = pane
			}
			scratch = scratch[:0]
			for _, e := range seg[lo:hi] {
				scratch = append(scratch, e.kv)
			}
			curC.UpdateBatch(scratch, p.spec.Combine)
			curPS.folded.Add(uint64(hi - lo))
			lo = hi
		}
	}
}

// sealable returns the highest window index (exclusive) the current
// watermark allows sealing: every window n with n*Slide+Window <= wm.
func (p *Pipeline[S, K, V, R]) sealableBefore() int64 {
	wm := p.watermark()
	end := (wm - p.win.Window) / p.win.Slide
	if wm-p.win.Window < 0 {
		return 0
	}
	return end + 1
}

// sealLoop is the watermark-driven sealer: it seals every window the
// watermark has passed, in order, and blocks — until an append or combine
// progress kicks it — only when nothing more is sealable; on Close it seals
// everything that ever held data. The limit is recomputed after every
// sealed window, not once per wake-up: sealWindow's quiescence wait takes
// kicks off sealWake too, so a kick that announced a later window may
// already be spent.
func (p *Pipeline[S, K, V, R]) sealLoop() {
	defer close(p.sealerDone)
	next := int64(0)
	for {
		// The flush flag is captured BEFORE the limit: if it flips true
		// after this read, the pending flushCh wake re-enters the loop
		// and the final windows seal then — returning on a flag read
		// after a stale limit would drop them.
		flush := p.flushing.Load()
		limit := p.sealableBefore()
		if flush {
			// Final flush: every pane with data belongs to some window
			// <= maxPane (window n's lowest pane is n). Workers are
			// gone; everything is quiescent by construction.
			p.paneMu.Lock()
			limit = p.maxPane + 1
			p.paneMu.Unlock()
		}
		if next < limit {
			if !p.sealWindow(next) {
				return // session died while waiting for quiescence
			}
			next++
			continue
		}
		if flush {
			return
		}
		select {
		case <-p.dying:
			return
		case <-p.sealWake:
		case <-p.flushCh:
		}
	}
}

// windowQuiesced reports whether every pane of window n is fully folded.
func (p *Pipeline[S, K, V, R]) windowQuiesced(n int64) bool {
	k := p.win.PanesPerWindow()
	for pane := n; pane < n+k; pane++ {
		ps := p.lookupPane(pane)
		if ps == nil {
			continue
		}
		if ps.splitsDone.Load() != ps.splitsIn.Load() || ps.folded.Load() != ps.pushed.Load() {
			return false
		}
	}
	return true
}

// sealWindow waits for window n's panes to quiesce, merges the
// combiners' pane containers, reduces, sorts and publishes the
// snapshot. Empty windows (no pane ever held data) are skipped without
// publishing. Returns false if the session died while waiting.
func (p *Pipeline[S, K, V, R]) sealWindow(n int64) bool {
	k := p.win.PanesPerWindow()
	hasData := false
	var opened time.Time
	var splitsN, chunksN int64
	var elements uint64
	for pane := n; pane < n+k; pane++ {
		ps := p.lookupPane(pane)
		if ps == nil || ps.splitsIn.Load() == 0 {
			continue
		}
		hasData = true
		if opened.IsZero() || ps.firstAppend.Before(opened) {
			opened = ps.firstAppend
		}
	}
	if hasData {
		// Every counter change that can make the window quiescent is
		// followed by a kick (mapper after splitsDone, combiner after a
		// round that folded something), and the kick is buffered, so one
		// that lands between the check and the wait is not lost.
		for !p.windowQuiesced(n) {
			select {
			case <-p.dying:
				return false
			case <-p.sealWake:
			}
		}
		for pane := n; pane < n+k; pane++ {
			if ps := p.lookupPane(pane); ps != nil {
				splitsN += ps.splitsIn.Load()
				chunksN += ps.chunks.Load()
				elements += ps.folded.Load()
			}
		}
	}

	if hasData {
		// Merge every combiner's containers for the window's panes. The
		// per-combiner lock orders the walk against concurrent pane
		// creation; the containers themselves are quiescent (counters
		// balanced above, and panes below the watermark receive no new
		// input).
		out := p.spec.NewContainer()
		for _, cs := range p.combs {
			cs.mu.Lock()
			for pane := n; pane < n+k; pane++ {
				if src, ok := cs.panes[pane]; ok {
					container.Merge(out, src, p.spec.Combine)
				}
			}
			cs.mu.Unlock()
		}
		pairs, err := mr.ReduceAll(out, p.spec.Reduce, p.mappers)
		if err != nil {
			p.fail(err)
			return false
		}
		mr.SortPairs(pairs, p.spec.Less)
		w := &Window[K, R]{
			Index:    n,
			Start:    n * p.win.Slide,
			End:      n*p.win.Slide + p.win.Window,
			Pairs:    pairs,
			Elements: elements,
			Splits:   splitsN,
			Chunks:   chunksN,
			OpenedAt: opened,
			SealedAt: time.Now(),
		}
		p.winMu.Lock()
		p.windows[n] = w
		p.order = append(p.order, n)
		p.winMu.Unlock()
		if p.OnSeal != nil {
			p.OnSeal(w)
		}
	}
	// Pane n (the window's lowest) can never be read again: window n+1
	// starts at pane n+1. Drop its state and containers.
	p.paneMu.Lock()
	delete(p.panes, n)
	p.paneMu.Unlock()
	for _, cs := range p.combs {
		cs.mu.Lock()
		delete(cs.panes, n)
		cs.mu.Unlock()
	}
	return true
}

// Close seals the session: no more appends, mappers drain the task
// channel and exit, combiners drain the rings and exit, and the sealer
// flushes every remaining window (the final, watermark-incomplete
// windows included). It returns the session's error state; ctx bounds
// the wait — on expiry the session is cancelled and ctx's error
// returned.
func (p *Pipeline[S, K, V, R]) Close(ctx context.Context) error {
	p.appendMu.Lock()
	if !p.started {
		p.appendMu.Unlock()
		return errors.New("stream: pipeline not started")
	}
	alreadyClosed := p.closed
	if !p.closed {
		p.closed = true
		close(p.taskCh)
	}
	p.appendMu.Unlock()
	if !alreadyClosed {
		go func() {
			// The flush signal must wait for the worker pools: the
			// sealer treats flush mode as "everything is quiescent".
			p.mapWG.Wait()
			p.combWG.Wait()
			p.flushing.Store(true)
			close(p.flushCh)
		}()
	}
	select {
	case <-p.stopped:
		return p.Err()
	case <-ctx.Done():
		p.CancelWait()
		if err := p.Err(); err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
		return ctx.Err()
	}
}

// Windows returns the sealed windows in seal order.
func (p *Pipeline[S, K, V, R]) Windows() []*Window[K, R] {
	p.winMu.Lock()
	defer p.winMu.Unlock()
	out := make([]*Window[K, R], 0, len(p.order))
	for _, n := range p.order {
		out = append(out, p.windows[n])
	}
	return out
}

// Window returns sealed window n, if sealed.
func (p *Pipeline[S, K, V, R]) Window(n int64) (*Window[K, R], bool) {
	p.winMu.Lock()
	defer p.winMu.Unlock()
	w, ok := p.windows[n]
	return w, ok
}

// SealedCount returns how many windows have sealed so far.
func (p *Pipeline[S, K, V, R]) SealedCount() int {
	p.winMu.Lock()
	defer p.winMu.Unlock()
	return len(p.order)
}

// Stats snapshots the session's live counters.
func (p *Pipeline[S, K, V, R]) Stats() Stats {
	p.appendMu.Lock()
	closed := p.closed
	p.appendMu.Unlock()
	st := Stats{
		Chunks:        p.chunks.Load(),
		Splits:        p.splits.Load(),
		Elements:      p.elements.Load(),
		Pending:       p.pending.Load(),
		MaxPending:    p.win.MaxPending,
		MaxTs:         p.maxTs.Load(),
		Watermark:     p.watermark(),
		Sealed:        p.SealedCount(),
		Backpressured: p.backpressured.Load(),
		LateRejected:  p.lateRejected.Load(),
		Closed:        closed,
	}
	p.paneMu.Lock()
	var oldest time.Time
	for _, ps := range p.panes {
		if ps.splitsIn.Load() == 0 {
			continue
		}
		if oldest.IsZero() || ps.firstAppend.Before(oldest) {
			oldest = ps.firstAppend
		}
	}
	p.paneMu.Unlock()
	if !oldest.IsZero() {
		st.WatermarkLag = time.Since(oldest)
	}
	return st
}

// QueueStats returns the aggregated SPSC counters. Exact after the
// session stopped; while live it approximates from telemetry mirrors
// (zero without telemetry).
func (p *Pipeline[S, K, V, R]) QueueStats() mr.QueueStats {
	select {
	case <-p.stopped:
		p.finalMu.Lock()
		defer p.finalMu.Unlock()
		return p.finalQueue
	default:
	}
	var qs mr.QueueStats
	if p.tel != nil {
		c := p.tel.CountersNow()
		qs.Pushes = c.Pushes
		qs.FailedPush = c.FailedPush
		qs.Pops = c.Pops
		qs.EmptyPolls = c.EmptyPolls
		qs.ShortPolls = c.ShortPolls
		qs.BatchCalls = c.BatchCalls
	}
	return qs
}

// Uptime returns how long the session has been running.
func (p *Pipeline[S, K, V, R]) Uptime() time.Duration {
	if p.startAt.IsZero() {
		return 0
	}
	return time.Since(p.startAt)
}
