// Package telemetry is the live observability layer of the runtime: it
// turns the backpressure dynamics the paper reasons about — how full the
// SPSC rings run (§III-A's queue-capacity tuning), how busy each worker
// class stays (§III-B's mapper/combiner ratio) — into data any run can
// produce, while a job is still executing.
//
// Three pieces:
//
//   - Per-worker sharded counters. Each worker goroutine owns a Worker
//     record of atomic counters (pairs emitted/combined, tasks, batches,
//     failed pushes, sleep time) plus a state word. Workers only ever touch
//     their own record, so with telemetry enabled the hot path pays local,
//     uncontended atomic increments — amortized further by the engines,
//     which add per slab/batch/task rather than per pair. With
//     Config.Telemetry nil the engines skip registration entirely and pay
//     nothing.
//
//   - A background sampler. At a configurable interval it snapshots every
//     registered queue's depth (via the non-invasive Probe — spsc.Queue's
//     Len/Cap satisfy it) and every worker's state into a bounded
//     time-series, yielding queue-occupancy-over-time and worker
//     utilization curves per run. The series decimates itself when full
//     (drop every other sample, double the stride), so it always spans the
//     whole run in bounded memory.
//
//   - Exporters. Prometheus text-format exposition (WritePrometheus,
//     optionally served live together with net/http/pprof by Server), a
//     structured JSON run report (Report, attached to mr.Result and
//     dumpable from cmd/ramrbench via -metrics-out), and a human-readable
//     summary (Report.Summary).
//
// A Telemetry records one run at a time: BeginRun resets the registries
// and starts the sampler, EndRun stops it and builds the Report. Reusing
// one Telemetry across sequential runs is fine (the bench harness does);
// sharing one across concurrent runs is not.
package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Defaults for the sampler knobs; see the corresponding Telemetry fields.
const (
	DefaultInterval   = 200 * time.Microsecond
	DefaultMaxSamples = 4096
)

// Probe exposes a queue's instantaneous depth and capacity. spsc.Queue
// satisfies it; Len is a point-in-time snapshot safe to call from any
// goroutine while the two queue sides run.
type Probe interface {
	Len() int
	Cap() int
}

// State is a worker's coarse activity phase, sampled for the utilization
// curves.
type State uint32

const (
	// StateIdle: registered but not currently executing user code (a
	// combiner between non-empty polling rounds, a worker before its
	// first task).
	StateIdle State = iota
	// StateWorking: executing map/combine user code.
	StateWorking
	// StateDraining: a combiner force-draining closed queues after the
	// map phase ended.
	StateDraining
	// StateDone: the worker has exited.
	StateDone
	// StateHelping: a combiner slot whose rings held nothing for it is
	// running a map task itself. It is busy time, but not time its rings
	// kept it busy, so it is kept apart from StateWorking.
	StateHelping
)

// String names the state for reports.
func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateWorking:
		return "working"
	case StateDraining:
		return "draining"
	case StateDone:
		return "done"
	case StateHelping:
		return "helping"
	default:
		return fmt.Sprintf("State(%d)", uint32(s))
	}
}

// Worker is one worker goroutine's private counter shard. All methods are
// safe on a nil receiver (no-ops), so engine code can hold a nil *Worker
// when telemetry is disabled and call unconditionally off the innermost
// loops. Counters are atomics because the sampler and exporters read them
// concurrently; only the owning worker writes them, so the adds never
// contend.
type Worker struct {
	engine string
	role   string
	id     int

	state    atomic.Uint32
	emitted  atomic.Uint64
	combined atomic.Uint64
	tasks    atomic.Uint64
	batches  atomic.Uint64
	// helped counts the map tasks a combiner slot ran (they are in tasks
	// too); folded the pairs a worker folded where they were emitted — a
	// helping slot's, or a mapper's whose ring was full (they are in
	// emitted and in combined too, and never crossed a ring).
	helped atomic.Uint64
	folded atomic.Uint64
	// pushes, failedPush and sleepMicros mirror the producer-owned spsc
	// counters (absolute values, stored not added) so they stay readable
	// while the consumer side is still running. pushes exists so the
	// online tuner can form a failed-push *rate* from live mirrors.
	pushes      atomic.Uint64
	failedPush  atomic.Uint64
	sleepMicros atomic.Uint64
	// Work-stealing counters, indexed by steal class (0 local take,
	// 1 socket steal, 2 remote steal — topology.StealClass values; the
	// int indexing keeps telemetry free of a topology dependency).
	stealBatches   [NumStealClasses]atomic.Uint64
	stealTasks     [NumStealClasses]atomic.Uint64
	remoteExecuted atomic.Uint64
}

// Steal class indices and labels, mirroring topology.StealClass.
const NumStealClasses = 3

// StealClassNames are the metric label values, indexed by class.
var StealClassNames = [NumStealClasses]string{"local", "socket", "remote"}

// SetState publishes the worker's activity phase for the sampler.
func (w *Worker) SetState(s State) {
	if w != nil {
		w.state.Store(uint32(s))
	}
}

// AddEmitted counts n intermediate pairs emitted by this worker's Map.
func (w *Worker) AddEmitted(n int) {
	if w != nil && n > 0 {
		w.emitted.Add(uint64(n))
	}
}

// AddCombined counts n intermediate pairs folded into this worker's
// container by Combine.
func (w *Worker) AddCombined(n int) {
	if w != nil && n > 0 {
		w.combined.Add(uint64(n))
	}
}

// AddTasks counts n completed map tasks.
func (w *Worker) AddTasks(n int) {
	if w != nil && n > 0 {
		w.tasks.Add(uint64(n))
	}
}

// AddHelped counts n map tasks run by a combiner slot.
func (w *Worker) AddHelped(n int) {
	if w != nil && n > 0 {
		w.helped.Add(uint64(n))
	}
}

// AddFolded counts n pairs folded where they were emitted instead of being
// sent through a ring.
func (w *Worker) AddFolded(n int) {
	if w != nil && n > 0 {
		w.folded.Add(uint64(n))
	}
}

// AddSteal counts one take of n tasks in the given steal class (a
// topology.StealClass value); out-of-range classes are dropped.
func (w *Worker) AddSteal(class int, n int) {
	if w != nil && class >= 0 && class < NumStealClasses && n > 0 {
		w.stealBatches[class].Add(1)
		w.stealTasks[class].Add(uint64(n))
	}
}

// AddRemoteExecuted counts n completed map tasks that this worker stole
// from another locality group's deque.
func (w *Worker) AddRemoteExecuted(n int) {
	if w != nil && n > 0 {
		w.remoteExecuted.Add(uint64(n))
	}
}

// AddBatches counts n consumed queue segments (combiner side).
func (w *Worker) AddBatches(n int) {
	if w != nil && n > 0 {
		w.batches.Add(uint64(n))
	}
}

// StoreProducer mirrors the producer-owned queue counters (cumulative
// pushes, failed pushes and microseconds slept on a full ring). Call from
// the producer goroutine with spsc.Queue.ProducerStats values.
func (w *Worker) StoreProducer(pushes, failedPush, sleepMicros uint64) {
	if w != nil {
		w.pushes.Store(pushes)
		w.failedPush.Store(failedPush)
		w.sleepMicros.Store(sleepMicros)
	}
}

// QueueMirror holds one queue's consumer-side counter mirrors. The spsc
// consumer counters are owned by the consuming goroutine and unreadable
// from anywhere else while the run is live; the pipeline kernel's consume
// loop stores cumulative ConsumerStats values here once per polling round,
// for every driver (untuned batch runs and stream sessions included).
// Ownership handoffs between combiners are serialized by the pool lock, so
// the stores never race even as a queue changes consumers; readers (the
// tuner) see cumulative per-queue values that can be summed without
// double counting. All methods are nil-safe.
type QueueMirror struct {
	pops       atomic.Uint64
	emptyPolls atomic.Uint64
	shortPolls atomic.Uint64
	batchCalls atomic.Uint64
}

// StoreConsumer mirrors spsc.Queue.ConsumerStats values. Call from the
// queue's current consumer goroutine.
func (m *QueueMirror) StoreConsumer(pops, emptyPolls, shortPolls, batchCalls uint64) {
	if m != nil {
		m.pops.Store(pops)
		m.emptyPolls.Store(emptyPolls)
		m.shortPolls.Store(shortPolls)
		m.batchCalls.Store(batchCalls)
	}
}

// registeredQueue pairs a probe with its report label and consumer
// mirror.
type registeredQueue struct {
	name   string
	probe  Probe
	mirror *QueueMirror
}

// Telemetry collects one run's live metrics. The zero value is usable:
// unset knobs take the Default* values at BeginRun.
type Telemetry struct {
	// Interval is the sampling period; 0 selects DefaultInterval.
	Interval time.Duration
	// MaxSamples bounds the in-memory time-series; when the bound is
	// reached the series decimates (halves resolution) so it still spans
	// the whole run. 0 selects DefaultMaxSamples.
	MaxSamples int
	// Addr is the listen address a Server should use when one is started
	// for this Telemetry ("" means no server); see NewServer. The field
	// exists so the whole observability setup can travel inside
	// mr.Config.
	Addr string

	mu            sync.Mutex
	engine        string
	start         time.Time
	workers       []*Worker
	queues        []registeredQueue
	series        *series
	observer      func(Sample)
	stop          chan struct{}
	done          chan struct{}
	last          *Report
	lastImbalance float64
}

// New returns a Telemetry with default knobs, ready for mr.Config.
func New() *Telemetry { return &Telemetry{} }

// BeginRun clears any previous run's registrations and starts the
// background sampler. Engines call it once at run start when
// Config.Telemetry is non-nil.
func (t *Telemetry) BeginRun(engine string) {
	t.mu.Lock()
	t.stopLocked()
	t.engine = engine
	t.start = time.Now()
	t.workers = nil
	t.queues = nil
	t.observer = nil
	interval := t.Interval
	if interval <= 0 {
		interval = DefaultInterval
	}
	max := t.MaxSamples
	if max <= 0 {
		max = DefaultMaxSamples
	}
	t.series = newSeries(max)
	t.lastImbalance = 0
	stop := make(chan struct{})
	done := make(chan struct{})
	t.stop, t.done = stop, done
	t.mu.Unlock()

	go t.sampleLoop(interval, stop, done)
}

// RegisterWorker adds a worker shard for the current run and returns it.
// Safe to call concurrently from worker goroutines.
func (t *Telemetry) RegisterWorker(role string, id int) *Worker {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := &Worker{engine: t.engine, role: role, id: id}
	t.workers = append(t.workers, w)
	return w
}

// RegisterQueue adds a queue depth probe for the current run and returns
// the queue's consumer mirror (callers that do not mirror may discard
// it).
func (t *Telemetry) RegisterQueue(name string, p Probe) *QueueMirror {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := &QueueMirror{}
	t.queues = append(t.queues, registeredQueue{name: name, probe: p, mirror: m})
	return m
}

// SetObserver registers fn to be called with every regular sampler tick's
// Sample, from the sampler goroutine, outside the telemetry lock. The
// online tuner driver uses it as its epoch clock. Pass nil to remove the
// observer; BeginRun also clears it.
func (t *Telemetry) SetObserver(fn func(Sample)) {
	t.mu.Lock()
	t.observer = fn
	t.mu.Unlock()
}

// sampleLoop drives the sampler until stop closes.
func (t *Telemetry) sampleLoop(interval time.Duration, stop, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			t.sample(false)
		}
	}
}

// sample takes one snapshot of every queue depth and worker state. force
// bypasses the series' stride decimation (used for the final sample) and
// skips the observer, so observers see exactly the regular tick cadence.
func (t *Telemetry) sample(force bool) {
	t.mu.Lock()
	if t.series == nil {
		t.mu.Unlock()
		return
	}
	s := Sample{T: time.Since(t.start)}
	if len(t.queues) > 0 {
		s.Depths = make([]int, len(t.queues))
		sum, max := 0, 0
		for i, q := range t.queues {
			d := q.probe.Len()
			s.Depths[i] = d
			sum += d
			if d > max {
				max = d
			}
		}
		// Imbalance = max/mean; an all-empty tick is balanced (1.0), not
		// undefined, so epochs of pure idleness never read as skew.
		s.Imbalance = 1.0
		if sum > 0 {
			s.Imbalance = float64(max) * float64(len(t.queues)) / float64(sum)
		}
		t.lastImbalance = s.Imbalance
	}
	if len(t.workers) > 0 {
		s.States = make([]State, len(t.workers))
		for i, w := range t.workers {
			s.States[i] = State(w.state.Load())
		}
	}
	if force {
		t.series.force(s)
	} else {
		t.series.add(s)
	}
	fn := t.observer
	t.mu.Unlock()
	if fn != nil && !force {
		fn(s)
	}
}

// Counters is a point-in-time aggregate of the live counter mirrors: the
// producer side summed over worker shards, the consumer side summed over
// queue mirrors. Values are cumulative since BeginRun; the tuner forms
// per-epoch rates by differencing two snapshots.
type Counters struct {
	// Producer side (worker shards).
	Emitted    uint64
	Combined   uint64
	Pushes     uint64
	FailedPush uint64
	Helped     uint64 // map tasks run by combiner slots
	Folded     uint64 // pairs folded where they were emitted, by either pool
	// Consumer side (queue mirrors).
	Pops       uint64
	EmptyPolls uint64
	ShortPolls uint64
	BatchCalls uint64
}

// CountersNow snapshots the aggregate counters for the current run. Safe
// to call concurrently with the run.
func (t *Telemetry) CountersNow() Counters {
	t.mu.Lock()
	workers := t.workers
	queues := t.queues
	t.mu.Unlock()
	var c Counters
	for _, w := range workers {
		c.Emitted += w.emitted.Load()
		c.Combined += w.combined.Load()
		c.Pushes += w.pushes.Load()
		c.FailedPush += w.failedPush.Load()
		c.Helped += w.helped.Load()
		c.Folded += w.folded.Load()
	}
	for _, q := range queues {
		c.Pops += q.mirror.pops.Load()
		c.EmptyPolls += q.mirror.emptyPolls.Load()
		c.ShortPolls += q.mirror.shortPolls.Load()
		c.BatchCalls += q.mirror.batchCalls.Load()
	}
	return c
}

// stopLocked halts the sampler; callers hold t.mu. The lock is released
// around the wait so an in-flight sample() can finish.
func (t *Telemetry) stopLocked() {
	if t.stop == nil {
		return
	}
	stop, done := t.stop, t.done
	t.stop, t.done = nil, nil
	close(stop)
	t.mu.Unlock()
	<-done
	t.mu.Lock()
	// A finished run's gauges need the rings' last readings, not the
	// rings: a Telemetry outlives its run (the service keeps one per
	// retained job record), and must not pin every ring buffer with it.
	for i, q := range t.queues {
		t.queues[i].probe = frozenProbe{len: q.probe.Len(), cap: q.probe.Cap()}
	}
}

// frozenProbe is a stopped run's queue: its final depth and capacity.
type frozenProbe struct{ len, cap int }

func (p frozenProbe) Len() int { return p.len }
func (p frozenProbe) Cap() int { return p.cap }

// Stop halts the sampler without building a report. Idempotent; engines
// defer it so error paths never leak the sampler goroutine.
func (t *Telemetry) Stop() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stopLocked()
}

// EndRun takes one final forced sample (so even sub-interval runs yield a
// non-empty series), stops the sampler and builds the run Report. phases
// carries per-phase wall-clock seconds keyed by phase name ("map-combine",
// ...); pass nil when unknown. The report is also retained for LastReport
// and the Prometheus exporter.
func (t *Telemetry) EndRun(phases map[string]float64) *Report {
	t.sample(true)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stopLocked()
	rep := t.buildReportLocked(phases)
	t.last = rep
	return rep
}

// LastReport returns the most recent EndRun report, or nil.
func (t *Telemetry) LastReport() *Report {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.last
}
