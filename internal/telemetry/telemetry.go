// Package telemetry is the live observability layer of the runtime: it
// turns the backpressure dynamics the paper reasons about — how full the
// SPSC rings run (§III-A's queue-capacity tuning), how busy each worker
// class stays (§III-B's mapper/combiner ratio) — into data any run can
// produce, while a job is still executing.
//
// Two layers:
//
//   - The ledger, always on. Each pipeline goroutine owns a Worker shard of
//     its run's Ledger (tasks, emitted and folded counts, its
//     rings' producer or consumer counters, steal takes) plus a state word.
//     The worker is its only writer and writes at task ends, consume rounds
//     and worker exit, never per pair, with uncontended atomics. Every run
//     statistic — mr.Result's queue/steal/help counts, a stream session's
//     live stats, a Report's Totals, the Prometheus counters — is a view
//     of Ledger.Totals or of the shards.
//
//   - The optional Telemetry, a reader of the ledger. A background sampler
//     snapshots every registered queue's depth (via the non-invasive Probe
//     — spsc.Queue's Len/Cap satisfy it) and every worker's state into a
//     bounded, self-decimating time-series, yielding occupancy-over-time
//     and utilization curves; exporters turn ledger and series into
//     Prometheus text (WritePrometheus, served by Server or Multi), a
//     structured JSON Report (attached to mr.Result, dumpable from
//     cmd/ramrbench via -metrics-out) and a human-readable Summary.
//
// A Telemetry records one run at a time: BeginRun attaches the run's
// ledger, resets the queue registry and starts the sampler, EndRun stops
// it and builds the Report. Reusing one Telemetry across sequential runs
// is fine (the bench harness does); sharing one across concurrent runs is
// not.
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
	default:
		return fmt.Sprintf("State(%d)", uint32(s))
	}
}

// Worker is one pipeline goroutine's shard of its run's Ledger. Only the
// owning goroutine writes it, and only at coarse boundaries: the engine's
// worker loop adds tasks, emitted pairs and steal takes per
// task, and stores the plain counters it keeps itself — its ring's
// producer side and its lane's fold count at task end and lane exit, the
// consumer side of a slot's rings once per consume round. Counters are
// atomics because the sampler, exporters and live stats read them
// concurrently; the writes never contend.
type Worker struct {
	engine string
	role   string
	id     int

	state   atomic.Uint32
	emitted atomic.Uint64
	tasks   atomic.Uint64
	// folded counts the pairs a worker folded where they were emitted — a
	// fused worker's: in a RAMR run whose plan ships no pair, a stream
	// session, and Phoenix++. They are in emitted and never crossed a ring.
	folded atomic.Uint64
	// The producer side of a mapper's ring and the consumer side of a
	// slot's rings, summed over the rings it owns: absolute values, stored
	// not added. A ring has one producer and one consumer for the whole
	// run, so the shards sum to the rings' totals without double counting.
	pushes      atomic.Uint64
	failedPush  atomic.Uint64
	sleepMicros atomic.Uint64
	pops        atomic.Uint64
	emptyPolls  atomic.Uint64
	shortPolls  atomic.Uint64
	batchCalls  atomic.Uint64
	// Work-stealing counters, indexed by steal class (0 local take,
	// 1 socket steal, 2 remote steal — topology.StealClass values; the
	// int indexing keeps telemetry free of a topology dependency).
	stealBatches   [NumStealClasses]atomic.Uint64
	stealTasks     [NumStealClasses]atomic.Uint64
	remoteExecuted atomic.Uint64
	// A cache line of padding keeps the next shard's counters, written by
	// another worker, off this shard's last line.
	_ [64]byte
}

// Steal class indices and labels, mirroring topology.StealClass.
const NumStealClasses = 3

// StealClassNames are the metric label values, indexed by class.
var StealClassNames = [NumStealClasses]string{"local", "socket", "remote"}

// SetState publishes the worker's activity phase for the sampler.
func (w *Worker) SetState(s State) { w.state.Store(uint32(s)) }

// AddTask books one finished map task and the pairs it emitted.
func (w *Worker) AddTask(emitted uint64) {
	w.tasks.Add(1)
	w.emitted.Add(emitted)
}

// StoreFolded stores the pairs the worker has folded where they were
// emitted so far.
func (w *Worker) StoreFolded(n uint64) { w.folded.Store(n) }

// AddSteal counts one take of n tasks in the given steal class (a
// topology.StealClass value).
func (w *Worker) AddSteal(class int, n uint64) {
	w.stealBatches[class].Add(1)
	w.stealTasks[class].Add(n)
}

// AddRemoteExecuted counts one completed map task that this worker stole
// from another locality group's deque.
func (w *Worker) AddRemoteExecuted() { w.remoteExecuted.Add(1) }

// StoreProducer stores the producer side of the worker's ring, as
// spsc.Queue.ProducerStats returns it.
func (w *Worker) StoreProducer(pushes, failedPush, sleepMicros uint64) {
	w.pushes.Store(pushes)
	w.failedPush.Store(failedPush)
	w.sleepMicros.Store(sleepMicros)
}

// StoreConsumer stores the consumer side of the worker's rings, summed over
// them from spsc.Queue.ConsumerStats.
func (w *Worker) StoreConsumer(pops, emptyPolls, shortPolls, batchCalls uint64) {
	w.pops.Store(pops)
	w.emptyPolls.Store(emptyPolls)
	w.shortPolls.Store(shortPolls)
	w.batchCalls.Store(batchCalls)
}

// combined is the pairs the worker fed to Combine: popped from its rings,
// or folded where they were emitted.
func (w *Worker) combined() uint64 { return w.pops.Load() + w.folded.Load() }

// combinerTasks is the map tasks the worker ran if it is a combiner: a
// fused pool's combine worker's, in a stream session or a batch run whose
// plan ships no pair. Only those run tasks on a combiner's shard.
func (w *Worker) combinerTasks() uint64 {
	if w.role != "combiner" {
		return 0
	}
	return w.tasks.Load()
}

// Ledger is one run's set of books: a Worker shard per pipeline goroutine,
// registered whether or not a Telemetry samples the run. Every statistic a
// run reports — its queue, steal and help counts, a stream session's live
// stats, a Report's Totals, the Prometheus counters — is a view of it.
type Ledger struct {
	engine  string
	mu      sync.Mutex
	workers []*Worker
}

// NewLedger returns an empty ledger for one run of engine.
func NewLedger(engine string) *Ledger { return &Ledger{engine: engine} }

// Register adds a shard for worker id of role and returns it. Safe to
// call concurrently from worker goroutines.
func (l *Ledger) Register(role string, id int) *Worker {
	w := &Worker{engine: l.engine, role: role, id: id}
	l.mu.Lock()
	l.workers = append(l.workers, w)
	l.mu.Unlock()
	return w
}

// shards returns the registered shards. The slice is only ever appended
// to, so a reader may range over it without the lock.
func (l *Ledger) shards() []*Worker {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.workers
}

// Totals sums the shards: the run's books at this instant, exact once its
// workers have exited. Safe to call while the run is live.
func (l *Ledger) Totals() Totals {
	var t Totals
	for _, w := range l.shards() {
		t.Emitted += w.emitted.Load()
		t.Combined += w.combined()
		t.Tasks += w.tasks.Load()
		t.Pushes += w.pushes.Load()
		t.FailedPush += w.failedPush.Load()
		t.SleepMicros += w.sleepMicros.Load()
		t.Pops += w.pops.Load()
		t.EmptyPolls += w.emptyPolls.Load()
		t.ShortPolls += w.shortPolls.Load()
		t.Batches += w.batchCalls.Load()
		t.LocalBatches += w.stealBatches[0].Load()
		t.SocketBatches += w.stealBatches[1].Load()
		t.RemoteBatches += w.stealBatches[2].Load()
		t.LocalTakes += w.stealTasks[0].Load()
		t.SocketSteals += w.stealTasks[1].Load()
		t.RemoteSteals += w.stealTasks[2].Load()
		t.RemoteExecuted += w.remoteExecuted.Load()
		t.TasksHelped += w.combinerTasks()
		switch w.role {
		case "combiner":
			t.FoldedByCombiners += w.folded.Load()
		case "mapper":
			t.FoldedByMappers += w.folded.Load()
		}
	}
	return t
}

// registeredQueue pairs a probe with its report label.
type registeredQueue struct {
	name  string
	probe Probe
}

// Telemetry is the optional reader of one run's Ledger: it samples ring
// depths and worker states over time, builds the occupancy/busy/imbalance
// Report and exports it all to Prometheus and JSON. The zero value is
// usable: unset knobs take the Default* values at BeginRun.
type Telemetry struct {
	// Interval is the sampling period; 0 selects DefaultInterval.
	Interval time.Duration
	// MaxSamples bounds the in-memory time-series; when the bound is
	// reached the series decimates (halves resolution) so it still spans
	// the whole run. 0 selects DefaultMaxSamples.
	MaxSamples int

	mu            sync.Mutex
	ledger        *Ledger
	start         time.Time
	queues        []registeredQueue
	series        *series
	stop          chan struct{}
	done          chan struct{}
	last          *Report
	lastImbalance float64
}

// New returns a Telemetry with default knobs, ready for mr.Config.
func New() *Telemetry { return &Telemetry{} }

// BeginRun clears any previous run's registrations, attaches the run's
// ledger and starts the background sampler. Engines call it once at run
// start when Config.Telemetry is non-nil.
func (t *Telemetry) BeginRun(l *Ledger) {
	t.mu.Lock()
	t.stopLocked()
	t.ledger = l
	t.start = time.Now()
	t.queues = nil
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

// RegisterQueue adds a queue depth probe for the current run.
func (t *Telemetry) RegisterQueue(name string, p Probe) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.queues = append(t.queues, registeredQueue{name: name, probe: p})
}

// workersLocked returns the attached ledger's shards (none before the
// first BeginRun); t.mu is held.
func (t *Telemetry) workersLocked() []*Worker {
	if t.ledger == nil {
		return nil
	}
	return t.ledger.shards()
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
// bypasses the series' stride decimation (used for the final sample).
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
	if workers := t.workersLocked(); len(workers) > 0 {
		s.States = make([]State, len(workers))
		for i, w := range workers {
			s.States[i] = State(w.state.Load())
		}
	}
	if force {
		t.series.force(s)
	} else {
		t.series.add(s)
	}
	t.mu.Unlock()
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
