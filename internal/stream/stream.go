// Package stream is the resident streaming runtime: the paper's decoupled
// map/combine pipeline (internal/core) turned into a long-lived session
// that absorbs input chunks over time and emits per-window snapshot
// results without ever tearing its workers down.
//
// A session runs the batch engine's one driver (core.Driver): its pool of
// workers placed once (core.Pool: the pinning plan, the failure latch and the
// ledger), its task source, its per-task step and its finish. A batch run is
// a closed session; a session keeps its source open instead: Append deals
// each admitted split to the locality groups' deques, where the workers
// take, steal and park; each worker folds into per-pane containers keyed by
// event time. A window is sealed — the finish: merge, reduce, sort — where
// it becomes sealable, on the goroutine that made it so: the worker that
// books the last split of one of its panes, or the Append that moves the
// watermark past it. No goroutine waits to seal. In-node combining is what
// makes this cheap: a container already is an incremental cache of the
// window's state, so a seal only merges a few small containers per pane,
// never replays input.
//
// Windowing model (see DESIGN.md §14): every chunk carries an event-time
// tick; window n covers ticks [n*Slide, n*Slide+Window); state is sliced
// into Slide-sized panes so sliding windows share panes instead of
// duplicating folds; the watermark is maxTick-Lateness and window n seals
// once n*Slide+Window <= watermark. Sealing is exact, not best-effort: a
// window is merged only after every split routed to its panes has been
// mapped, tracked by per-pane conservation counters (splits in/done).
//
// Placement (DESIGN.md §5.2): a session is always one pool of identical
// fused workers sized to its grant — core.NewSession, without leave to ship,
// whatever its pinning plan; the paper's ring pipeline is a batch mechanism.
// Each worker takes a split, points its container at the split's pane — its
// own per-pane containers — and folds every pair there as it is made
// (in-node combining), so a pane quiesces once its splits are done. Besides
// its pool a session runs one goroutine, the janitor, which turns the pool's
// exit into the final flush and the Done signal.
package stream

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"ramr/internal/core"
	"ramr/internal/mr"
)

// TsAuto asks Append to assign the next tick after the highest seen.
const TsAuto int64 = -1

// ErrClosed reports an Append or Close on a session already closed to
// new input.
var ErrClosed = errors.New("stream: session closed to new input")

// BackpressureError rejects an Append that would exceed the pending
// bound. RetryAfter is the suggested client backoff, derived from how
// deep the backlog runs.
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
	// Splits carry the payload, mapped by the resident workers. The session
	// reads the slice until its splits are mapped: do not modify it after
	// Append.
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

// paneState tracks one pane's conservation counters. A window is
// quiescent — safe to merge — once, for every pane it spans, splitsDone ==
// splitsIn. A worker folds every pair of a split as it is made, before the
// split adds to splitsDone, and splitsIn for a sealable pane is frozen
// because Append rejects ticks behind the watermark: so the splits alone
// decide.
type paneState struct {
	splitsIn    atomic.Int64
	splitsDone  atomic.Int64
	elements    atomic.Uint64 // pairs the pane's done splits emitted
	chunks      atomic.Int64
	firstAppend time.Time
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
// builds it, Start spawns the worker pool, Append feeds it, Close
// drains and seals everything; the worker goroutines live for the whole
// session, across every window.
type Pipeline[S any, K comparable, V, R any] struct {
	cfg mr.Config
	win mr.StreamSpec            // resolved
	drv *core.Driver[S, K, V, R] // fused: its lanes never stage a pair

	// OnSeal, when set before Start, is invoked after each window is
	// published, on the goroutine that sealed it, one window at a time and
	// in order (service wires per-window trace spans and metrics through
	// it). It runs under the seal's lock, so it must not call Close, whose
	// final flush waits for that lock.
	OnSeal func(*Window[K, R])

	pending atomic.Int64
	maxTs   atomic.Int64 // highest tick seen; -1 before the first chunk

	appendMu sync.Mutex
	closed   bool

	paneMu sync.Mutex
	panes  map[int64]*paneState

	winMu   sync.Mutex
	windows map[int64]*Window[K, R]
	order   []int64
	maxPane int64 // highest pane that ever held data; -1 initially

	// sealMu is held by whoever seals; next is the lowest window not yet
	// sealed or skipped. again flags a change that may have made a window
	// sealable since the holder's last pass (see seal).
	sealMu sync.Mutex
	next   int64
	again  atomic.Bool

	chunks        atomic.Int64
	splits        atomic.Int64
	backpressured atomic.Uint64
	lateRejected  atomic.Uint64

	stopped chan struct{} // closed when every goroutine has exited
	started bool
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
	drv, err := core.NewSession(spec, cfg)
	if err != nil {
		return nil, err
	}
	p := &Pipeline[S, K, V, R]{
		cfg:     cfg,
		win:     cfg.Stream.Resolved(),
		drv:     drv,
		panes:   make(map[int64]*paneState),
		windows: make(map[int64]*Window[K, R]),
		stopped: make(chan struct{}),
	}
	p.maxTs.Store(-1)
	p.maxPane = -1
	return p, nil
}

// Start spawns the resident fused workers and the janitor. The workers live
// until Close or Cancel; no per-window restarts.
func (p *Pipeline[S, K, V, R]) Start() error {
	p.appendMu.Lock()
	defer p.appendMu.Unlock()
	if p.started {
		return errors.New("stream: pipeline already started")
	}
	p.started = true
	p.drv.Start(context.Background(), nil, p.book)
	// The janitor turns "every worker exited" into the final flush, once the
	// session is closed, and then into the stopped signal, for both the
	// orderly Close path and the Cancel/failure path. It takes sealMu
	// blocking: an Append may still be sealing, and no seal may outlast
	// Done.
	go func() {
		p.drv.Wait()
		p.appendMu.Lock()
		closed := p.closed
		p.appendMu.Unlock()
		p.sealMu.Lock()
		if closed {
			// The pool drained the source, so every pane is quiescent,
			// and every pane with data belongs to some window <= maxPane
			// (window n's lowest pane is n).
			p.paneMu.Lock()
			limit := p.maxPane + 1
			p.paneMu.Unlock()
			p.sealThrough(limit)
		}
		p.sealMu.Unlock()
		close(p.stopped)
	}()
	return nil
}

// Cancel aborts the session without draining.
func (p *Pipeline[S, K, V, R]) Cancel() { p.drv.Fail(context.Canceled) }

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
func (p *Pipeline[S, K, V, R]) Err() error { return p.drv.Err() }

// watermark returns maxTs - Lateness (negative before enough ticks).
func (p *Pipeline[S, K, V, R]) watermark() int64 {
	return p.maxTs.Load() - p.win.Lateness
}

// Append admits one chunk: its splits are routed to the pane of its
// tick and queued for the resident workers. It returns the tick the
// chunk was assigned. Errors: BackpressureError when the pending bound
// is hit, LateChunkError for ticks behind the watermark, ErrClosed
// after Close, or the session's fatal error. An Append that moves the
// watermark seals what that made due, after it releases the admission lock.
func (p *Pipeline[S, K, V, R]) Append(c Chunk[S]) (int64, error) {
	moved := false
	defer func() { // deferred before the unlock, so it runs after it
		if moved {
			p.seal()
		}
	}()
	p.appendMu.Lock()
	defer p.appendMu.Unlock()
	if err := p.drv.Err(); err != nil {
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
	pane := ts / p.win.Slide
	if pane > (math.MaxInt64-p.win.Window)/p.win.Slide {
		return 0, fmt.Errorf("stream: chunk tick %d is out of range: its window would end past the largest tick", ts)
	}
	if wm := p.watermark(); ts < wm {
		p.lateRejected.Add(1)
		return 0, &LateChunkError{Ts: ts, Watermark: wm}
	}
	n := len(c.Splits)
	if err := p.admit(n); err != nil {
		return 0, err
	}
	if n > 0 {
		ps := p.paneFor(pane)
		ps.splitsIn.Add(int64(n))
		ps.chunks.Add(1)
		p.splits.Add(int64(n))
		p.pending.Add(int64(n))
	}
	p.chunks.Add(1)
	if moved = ts > p.maxTs.Load(); moved {
		p.maxTs.Store(ts)
	}
	// The pending reservation above bounds the queued tasks by MaxPending,
	// and so each group's deque.
	p.drv.Append(pane, c.Splits)
	return ts, nil
}

// admit returns the BackpressureError, booked, that refuses a chunk of n
// splits at the current backlog, or nil if it fits.
func (p *Pipeline[S, K, V, R]) admit(n int) error {
	if pend := int(p.pending.Load()); n > p.win.MaxPending-pend {
		p.backpressured.Add(1)
		return &BackpressureError{
			RetryAfter: p.retryAfter(pend),
			Pending:    pend,
			Limit:      p.win.MaxPending,
		}
	}
	return nil
}

// Oversized returns the BackpressureError Append gives a chunk of n
// splits if no backlog could admit it — n above MaxPending — or nil. A
// workload's Decode asks before it builds a chunk's splits, so such a
// chunk builds nothing on its way to the refusal.
func (p *Pipeline[S, K, V, R]) Oversized(n int) error {
	if n <= p.win.MaxPending {
		return nil
	}
	return p.admit(n)
}

// retryAfter derives the backpressure hint: a term growing with the
// backlog fraction, clamped to [50ms, 2s].
func (p *Pipeline[S, K, V, R]) retryAfter(pending int) time.Duration {
	frac := float64(pending) / float64(p.win.MaxPending)
	d := time.Duration(frac * float64(500*time.Millisecond))
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
		ps = &paneState{firstAppend: time.Now()}
		p.panes[pane] = ps
		if pane > p.maxPane {
			p.maxPane = pane
		}
	}
	return ps
}

// firstPane returns the lowest pane holding data, or math.MaxInt64 if none
// does.
func (p *Pipeline[S, K, V, R]) firstPane() int64 {
	p.paneMu.Lock()
	defer p.paneMu.Unlock()
	first := int64(math.MaxInt64)
	for pane := range p.panes {
		first = min(first, pane)
	}
	return first
}

// lookupPane returns the pane's state without creating it.
func (p *Pipeline[S, K, V, R]) lookupPane(pane int64) *paneState {
	p.paneMu.Lock()
	defer p.paneMu.Unlock()
	return p.panes[pane]
}

// book is the step's per-task callback: a split is booked on its pane —
// what it emitted, strictly before splitsDone: the order the seal's quiesce
// check relies on. The split that quiesces its pane seals what that made
// due, before its pending slot is released: once Pending reads 0, every
// booked split's seal has run or been handed on.
func (p *Pipeline[S, K, V, R]) book(t core.Task[S], emitted uint64) {
	ps := p.lookupPane(t.Pane)
	ps.elements.Add(emitted)
	if ps.splitsDone.Add(int64(len(t.Splits))) == ps.splitsIn.Load() {
		p.seal()
	}
	p.pending.Add(-int64(len(t.Splits)))
}

// sealableBefore returns the highest window index (exclusive) the current
// watermark allows sealing: every window n with n*Slide+Window <= wm. The
// comparison comes first: at a Lateness near MaxInt64, wm-Window would wrap.
func (p *Pipeline[S, K, V, R]) sealableBefore() int64 {
	wm := p.watermark()
	if wm < p.win.Window {
		return 0
	}
	return (wm-p.win.Window)/p.win.Slide + 1
}

// seal seals every window that is due, on the caller's goroutine. A caller
// flags its change in again and seals only if it wins sealMu; the holder
// clears the flag before each pass and reads it again after unlocking, so a
// change made while another caller seals is looked at before that caller
// leaves, and nobody waits.
func (p *Pipeline[S, K, V, R]) seal() {
	p.again.Store(true)
	for p.again.Load() && p.sealMu.TryLock() {
		func() {
			defer p.sealMu.Unlock() // a panicking OnSeal must not leave it held
			p.again.Store(false)
			p.sealThrough(p.sealableBefore())
		}()
	}
}

// sealThrough seals windows from next up to limit (exclusive), in order,
// under sealMu. It stops at the first window whose panes have not quiesced
// — the booking that quiesces them seals it — and when the session dies.
func (p *Pipeline[S, K, V, R]) sealThrough(limit int64) {
	for p.next < limit && !p.drv.Aborted() {
		// The windows before the first pane holding data are empty: skip
		// them in one step, so sealing costs what the panes with data cost,
		// however far apart their ticks lie.
		if first := p.firstPane() - p.win.PanesPerWindow() + 1; first > p.next {
			p.next = min(first, limit)
			continue
		}
		if !p.sealWindow(p.next) {
			return
		}
		p.next++
	}
}

// sealWindow seals window n once its panes have quiesced — every split
// routed to them done, and so folded: it runs the finish over them — every
// worker's pane containers merged, reduced and sorted — and publishes the
// snapshot. Empty windows (no pane ever held data) are skipped without
// publishing. It returns false, sealing nothing, while a pane has not
// quiesced, and if the finish failed the session.
func (p *Pipeline[S, K, V, R]) sealWindow(n int64) bool {
	k := p.win.PanesPerWindow()
	w := &Window[K, R]{Index: n, Start: n * p.win.Slide, End: n*p.win.Slide + p.win.Window}
	for pane := n; pane < n+k; pane++ {
		if ps := p.lookupPane(pane); ps != nil { // a pane exists once it holds data
			// splitsDone first: a split books elements before it.
			if ps.splitsDone.Load() != ps.splitsIn.Load() {
				return false
			}
			if w.OpenedAt.IsZero() || ps.firstAppend.Before(w.OpenedAt) {
				w.OpenedAt = ps.firstAppend
			}
			w.Splits += ps.splitsIn.Load()
			w.Chunks += ps.chunks.Load()
			w.Elements += ps.elements.Load()
		}
	}
	if !w.OpenedAt.IsZero() {
		// A panic in user code fails the session as the sealer's, instead
		// of the process or the goroutine that sealed.
		pairs, err := p.drv.Finish(n, k, new(mr.PhaseTimes))
		if err != nil {
			if pe, ok := err.(*mr.PanicError); ok {
				err = &mr.PanicError{Engine: "stream", Worker: "sealer", Value: pe.Value}
			}
			p.drv.Fail(err)
			return false
		}
		w.Pairs, w.SealedAt = pairs, time.Now()
		p.winMu.Lock()
		p.windows[n] = w
		p.order = append(p.order, n)
		p.winMu.Unlock()
		if p.OnSeal != nil {
			p.OnSeal(w)
		}
	}
	// Pane n (the window's lowest) can never be read again: window n+1
	// starts at pane n+1. Drop its state; the finish took its containers.
	p.paneMu.Lock()
	delete(p.panes, n)
	p.paneMu.Unlock()
	return true
}

// Close seals the session: no more appends, workers drain the task
// source and exit, and the janitor flushes every remaining window (the
// final, watermark-incomplete windows included). It returns the session's
// error state; ctx bounds the wait — on expiry the session is cancelled and
// ctx's error returned.
func (p *Pipeline[S, K, V, R]) Close(ctx context.Context) error {
	p.appendMu.Lock()
	if !p.started {
		p.appendMu.Unlock()
		return errors.New("stream: pipeline not started")
	}
	if !p.closed {
		p.closed = true
		p.drv.Close()
	}
	p.appendMu.Unlock()
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
		Elements:      p.drv.Ledger.Totals().Emitted,
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
