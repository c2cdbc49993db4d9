// Package telemetry is the observability layer of the runtime: it turns
// the counts the paper explains its results with — how often producers met
// a full ring and consumers an empty one (§III-A's offline capacity
// tuning), how the map tasks were taken and where each pair was folded —
// into data any run can produce, while a job is still executing.
//
// Each pipeline goroutine owns a Worker shard of its run's Ledger (tasks,
// emitted and folded counts, its rings' producer or consumer counters,
// steal takes). The worker is its only writer and writes
// at task ends, consume rounds and worker exit, never per pair, with
// uncontended atomics. The ledger is always on, and it is the one set of
// books: every view of a run's counts — mr.Result's queue and steal
// sections, a Report and its rows, the Prometheus families — is a Totals
// read off it, when asked for, never sampled.
//
// The optional Telemetry is a plain handle on the live run's ledger:
// BeginRun attaches it, EndRun builds the Report from it, and
// WritePrometheus (served by Server) exports it. It starts no goroutine. A Telemetry records one run at a time; reusing one across
// sequential runs is fine (the bench harness does), sharing one across
// concurrent runs is not.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"

	"ramr/internal/spsc"
)

// Worker is one pipeline goroutine's shard of its run's Ledger. Only the
// owning goroutine writes it, and only at coarse boundaries: the engine's
// worker loop adds tasks, emitted pairs and steal takes per
// task, and stores the plain counters it keeps itself — its ring's
// producer side and its lane's fold count at task end and lane exit, the
// consumer side of a slot's rings once per consume round. Counters are
// atomics because the exporters and live stats read them concurrently; the
// writes never contend.
type Worker struct {
	engine string
	role   string
	id     int

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

// books reads the shard into a Totals: the one read behind every view of
// the ledger — its sum, a report row, a Prometheus series.
func (w *Worker) books() Totals {
	return Totals{
		Emitted: w.emitted.Load(),
		// Popped from the worker's rings, or folded where emitted.
		Combined: w.pops.Load() + w.folded.Load(),
		Tasks:    w.tasks.Load(),
		Queue: spsc.Stats{
			Pushes:      w.pushes.Load(),
			FailedPush:  w.failedPush.Load(),
			Pops:        w.pops.Load(),
			EmptyPolls:  w.emptyPolls.Load(),
			ShortPolls:  w.shortPolls.Load(),
			BatchCalls:  w.batchCalls.Load(),
			SleepMicros: w.sleepMicros.Load(),
		},
		Steal: StealStats{
			LocalBatches:   w.stealBatches[0].Load(),
			LocalTasks:     w.stealTasks[0].Load(),
			SocketBatches:  w.stealBatches[1].Load(),
			SocketTasks:    w.stealTasks[1].Load(),
			RemoteBatches:  w.stealBatches[2].Load(),
			RemoteTasks:    w.stealTasks[2].Load(),
			RemoteExecuted: w.remoteExecuted.Load(),
		},
	}
}

// Ledger is one run's set of books: a Worker shard per pipeline goroutine,
// registered whether or not a Telemetry reads the run. Every statistic a
// run reports — its queue and steal counts, a Report's Totals and rows, the
// Prometheus counters — is a view of it.
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
		t.Add(w.books())
	}
	return t
}

// Telemetry is the optional handle on one run's Ledger: it builds the
// run's Report and exports the ledger to Prometheus and JSON. The zero
// value is usable.
type Telemetry struct {
	mu         sync.Mutex
	ledger     *Ledger
	start, end time.Time // end is zero while the run is live
	last       *Report
}

// New returns a Telemetry, ready for mr.Config.
func New() *Telemetry { return &Telemetry{} }

// BeginRun attaches the run's ledger, replacing any previous run's. Engines
// call it once at run start when Config.Telemetry is non-nil.
func (t *Telemetry) BeginRun(l *Ledger) {
	t.mu.Lock()
	t.ledger, t.start, t.end = l, time.Now(), time.Time{}
	t.mu.Unlock()
}

// Totals returns the attached ledger's books at this instant (zero before
// the first BeginRun).
func (t *Telemetry) Totals() Totals {
	t.mu.Lock()
	l := t.ledger
	t.mu.Unlock()
	if l == nil {
		return Totals{}
	}
	return l.Totals()
}

// elapsedLocked is the run's duration: live until EndRun, then frozen at
// the report's; t.mu is held.
func (t *Telemetry) elapsedLocked() time.Duration {
	switch {
	case t.start.IsZero():
		return 0
	case t.end.IsZero():
		return time.Since(t.start)
	}
	return t.end.Sub(t.start)
}

// workersLocked returns the attached ledger's shards (none before the
// first BeginRun); t.mu is held.
func (t *Telemetry) workersLocked() []*Worker {
	if t.ledger == nil {
		return nil
	}
	return t.ledger.shards()
}

// EndRun builds the run's Report from the ledger. phases carries per-phase
// wall-clock seconds keyed by phase name ("map-combine", ...); pass nil
// when unknown. The report is also retained for LastReport.
func (t *Telemetry) EndRun(phases map[string]float64) *Report {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.end = time.Now()
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
