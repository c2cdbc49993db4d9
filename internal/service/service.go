// Package service is the job tier over internal/sched. It holds the job
// protocol — one HTTP front end (httpapi.go: routes, JSON envelope,
// error→status table, ?wait=, retention rule, daemon tail) over a small
// Backend interface — and the scheduler-backed worker backend, Service:
// named workloads admitted through a content-addressed memo cache and an
// in-flight coalescer onto scheduler grants, plus one shared Prometheus
// endpoint aggregating every job's live telemetry under per-job labels.
// The ramrd daemon (cmd/ramrd) is a thin flag-parsing wrapper around this
// package; the cluster coordinator (internal/cluster, cmd/ramrc) is the
// front end's other backend.
//
// Every submission carries a lifecycle trace (internal/obs): receive,
// memo outcome, queue wait, grant allocation, input build and the
// engine's phase and worker spans, retrievable as Chrome-trace JSON at
// GET /jobs/{id}/trace. Scheduler transitions and memo outcomes also
// land in a bounded ring (GET /debug/events), and job latencies feed the
// ramr_job_* Prometheus histograms. See DESIGN.md §13.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ramr/internal/memo"
	"ramr/internal/mr"
	"ramr/internal/obs"
	"ramr/internal/sched"
	"ramr/internal/telemetry"
	"ramr/internal/topology"
	"ramr/internal/workloads"
)

// DefaultRetainFinished bounds the number of finished job records the
// registry keeps when Config.RetainFinished is 0. Past the bound the
// oldest finished entries (and their telemetry registrations) are
// evicted — the registry shares the memo cache's bounded-retention
// discipline, so a long-lived daemon's memory stays flat.
const DefaultRetainFinished = 128

// DefaultEventLog bounds the /debug/events ring when Config.EventLog
// is 0.
const DefaultEventLog = 512

// Config parameterizes a Service.
type Config struct {
	// Machine is the topology the scheduler carves grants from; nil
	// detects the host.
	Machine *topology.Machine
	// Budget, MaxQueued and Seed are passed to sched.Config.
	Budget    int
	MaxQueued int
	Seed      int64
	// Observer taps scheduler events (tests assert invariants on it).
	Observer func(sched.Event)
	// CacheMaxBytes bounds the content-addressed result memo cache:
	// 0 selects memo.DefaultMaxBytes, negative disables memoization
	// (every submission executes; coalescing still applies).
	CacheMaxBytes int64
	// RetainFinished bounds the finished job records the registry keeps:
	// 0 selects DefaultRetainFinished, negative retains everything (the
	// pre-memo leaky behaviour, for tests only).
	RetainFinished int
	// Logger receives the service's structured log lines, each tagged
	// with job_id/content_digest correlation attributes where a job is
	// in scope. nil disables logging (a discard handler) — embedders
	// like cmd/ramrd pass their own.
	Logger *slog.Logger
	// EventLog bounds the /debug/events ring buffer: 0 selects
	// DefaultEventLog, negative disables the event log.
	EventLog int
}

// lifecycleHists are the service-lifetime latency histograms exposed on
// /metrics. They record per-job lifecycle observations — a handful per
// job, labelled workload/engine/priority — and are never unregistered,
// so latency distributions survive job retention and deletion.
type lifecycleHists struct {
	e2e       *telemetry.HistogramVec
	queueWait *telemetry.HistogramVec
	alloc     *telemetry.HistogramVec
	phase     *telemetry.HistogramVec
}

func newLifecycleHists() *lifecycleHists {
	labels := []string{"workload", "engine", "priority"}
	return &lifecycleHists{
		e2e: telemetry.NewHistogramVec("ramr_job_e2e_seconds",
			"End-to-end job latency from HTTP receive to terminal state (memo hits included).",
			labels, nil),
		queueWait: telemetry.NewHistogramVec("ramr_job_queue_wait_seconds",
			"Time a job spent admitted but not yet granted CPUs.", labels, nil),
		alloc: telemetry.NewHistogramVec("ramr_job_grant_alloc_seconds",
			"Time the scheduler spent carving the job's CPU grant.", labels, nil),
		phase: telemetry.NewHistogramVec("ramr_job_phase_seconds",
			"Engine phase durations of finished jobs.",
			[]string{"workload", "engine", "priority", "phase"}, nil),
	}
}

// Service owns a scheduler, the job registry, the shared telemetry
// aggregator and the content-addressed result memo cache.
type Service struct {
	machine *topology.Machine
	sch     *sched.Scheduler
	multi   *telemetry.Multi
	cache   *memo.Cache
	retain  int
	log     *slog.Logger
	ring    *obs.Ring
	hist    *lifecycleHists
	stream  *streamMetrics
	start   time.Time
	// builds counts materialised batch inputs: one per executed job,
	// none for a memo hit, a follower, a rejection, a job cancelled
	// while queued or a streaming session.
	builds atomic.Uint64
	// afterBuild, when set (tests only), runs in a batch job's Run
	// closure between the build and the execution.
	afterBuild func()

	// watchers counts the goroutines settling admitted jobs; Shutdown
	// waits for them, so a drained service has no unsettled record.
	watchers sync.WaitGroup

	mu       sync.Mutex
	entries  map[int]*entry
	inflight map[string]*entry // content digest → unsettled leader entry
	closed   bool
}

// entry is one submitted job's retained state. The RunInfo (phase times,
// queue stats, telemetry and tuner reports) is kept until the job is
// deleted or the retention bound evicts it, so results survive the run
// itself. A coalesced duplicate submission gets a follower entry: its
// own id, but the leader's sched.Job (one waiter reference each) and the
// leader's RunInfo — it observes the leader's completion, error and
// cancellation. A memo hit gets a jobless record (job == nil): its own
// id, a short hit-only trace, and execBy naming the executor. Until the
// embedded Settlement settles, the record reads live (see visible).
type entry struct {
	Settlement
	id       int
	workload string
	engine   workloads.Engine
	job      *sched.Job           // nil for memo-hit records
	telem    *telemetry.Telemetry // nil for followers and hits
	digest   string               // canonical content digest (hex)
	leader   *entry               // non-nil marks a follower
	rec      *obs.Recorder        // lifecycle trace, set on every entry
	execBy   int                  // memo hits: id of the executing job
	hitAt    time.Time            // memo hits: terminal timestamp
	stream   *streamState         // non-nil marks a streaming session

	mu   sync.Mutex
	info *workloads.RunInfo
}

// jobStatus snapshots the entry's scheduler state; memo-hit records have
// no sched.Job and synthesize a settled terminal status.
func (e *entry) jobStatus() sched.JobStatus {
	if e.job != nil {
		return e.job.Status()
	}
	return sched.JobStatus{ID: e.id, State: sched.StateDone, Finished: e.hitAt}
}

// terminalState names a settled job's state for every reader: status
// documents, the trace root, the log line and DELETE's 409 body. A run
// ended by the cancellation of its context is canceled, like a job pulled
// from the queue; any other end, failures included, is done plus an error.
func terminalState(st sched.JobStatus) string {
	if st.State == sched.StateCanceled || errors.Is(st.Err, context.Canceled) {
		return "canceled"
	}
	return "done"
}

// visible snapshots the job as clients may see it. An unsettled record is
// live: the scheduler may already have finished the run, but until the
// watcher has published everything derived from it the record keeps
// reading queued or running, with no end time and no error.
func (e *entry) visible() (js sched.JobStatus, state string, settled bool) {
	settled = e.IsSettled() // before the snapshot: a settled job's snapshot is terminal
	js = e.jobStatus()
	if settled {
		return js, terminalState(js), true
	}
	if js.State == sched.StateDone || js.State == sched.StateCanceled {
		js.State = sched.StateQueued
		if !js.Started.IsZero() {
			js.State = sched.StateRunning
		}
		js.Finished, js.Err = time.Time{}, nil
	}
	return js, js.State.String(), false
}

// runInfo returns the entry's retained result, reading through to the
// leader for followers.
func (e *entry) runInfo() *workloads.RunInfo {
	src := e
	if e.leader != nil {
		src = e.leader
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	return src.info
}

// cachedRun is the memo cache's value: everything needed to answer a
// repeat submission without touching the scheduler.
type cachedRun struct {
	jobID    int // the job that actually executed
	workload string
	info     *workloads.RunInfo
}

// finalMetrics flattens the retained RunInfo into the scheduler's metric
// map: work-stealing counters by distance class and the sampled queue
// imbalance. It is the JobSpec.Metrics callback, invoked once when the
// job finishes, and feeds EventFinished observers and JobStatus.
func (e *entry) finalMetrics() map[string]float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	info := e.info
	if info == nil {
		return nil
	}
	m := map[string]float64{
		"steal_local_tasks":     float64(info.Steal.LocalTasks),
		"steal_socket_tasks":    float64(info.Steal.SocketTasks),
		"steal_remote_tasks":    float64(info.Steal.RemoteTasks),
		"steal_remote_executed": float64(info.Steal.RemoteExecuted),
		"steal_rate":            info.Steal.StealRate(),
		"help_tasks":            float64(info.Help.Tasks),
		"help_pairs":            float64(info.Help.Pairs()),
	}
	if rep := info.Telemetry; rep != nil {
		m["queue_imbalance_p90"] = rep.Imbalance.P90
		m["queue_imbalance_max"] = rep.Imbalance.Max
	}
	return m
}

// New builds a Service.
func New(cfg Config) (*Service, error) {
	m := cfg.Machine
	if m == nil {
		m = topology.Detect()
	}
	retain := cfg.RetainFinished
	if retain == 0 {
		retain = DefaultRetainFinished
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	evCap := cfg.EventLog
	if evCap == 0 {
		evCap = DefaultEventLog
	}
	s := &Service{
		machine:  m,
		multi:    telemetry.NewMulti(),
		cache:    memo.NewCache(cfg.CacheMaxBytes),
		retain:   retain,
		log:      logger,
		ring:     obs.NewRing(evCap),
		hist:     newLifecycleHists(),
		stream:   newStreamMetrics(),
		start:    time.Now(),
		entries:  make(map[int]*entry),
		inflight: make(map[string]*entry),
	}
	sc, err := sched.New(sched.Config{
		Machine:   m,
		Budget:    cfg.Budget,
		MaxQueued: cfg.MaxQueued,
		Seed:      cfg.Seed,
		Logger:    cfg.Logger,
		// Scheduler transitions feed the bounded event log before the
		// embedder's observer; the ring has its own lock and never calls
		// back, so appending under the scheduler lock is safe.
		Observer: func(ev sched.Event) {
			s.ring.Append("sched_"+ev.Kind.String(), ev.JobID,
				map[string]any{"in_use": ev.InUse, "queued": ev.Queued})
			if cfg.Observer != nil {
				cfg.Observer(ev)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	s.sch = sc
	s.multi.SetExtra(s.writeServiceProm)
	return s, nil
}

// Scheduler exposes the underlying scheduler (tests and embedders).
func (s *Service) Scheduler() *sched.Scheduler { return s.sch }

// Multi exposes the shared telemetry aggregator backing /metrics.
func (s *Service) Multi() *telemetry.Multi { return s.multi }

// Cache exposes the result memo cache (tests and embedders).
func (s *Service) Cache() *memo.Cache { return s.cache }

// jobLog returns the service logger with the entry's correlation
// attributes attached.
func (s *Service) jobLog(e *entry) *slog.Logger {
	return s.log.With("job_id", e.id, "content_digest", e.digest)
}

// Submit admits one parsed job request programmatically and returns its
// submit document — what POST /jobs answers with.
func (s *Service) Submit(req *JobRequest) (*resultDoc, error) {
	j, cached, err := s.Admit(req, obs.New("job"))
	if err != nil {
		return nil, err
	}
	doc := j.(*entry).doc(cached)
	return &doc, nil
}

// Admit implements Backend: the core of POST /jobs. rec is the
// submission's lifecycle recorder, its epoch the receive.
//
// Admission precedes materialisation: the request is resolved to a plan
// (validation, defaults, content digest — no input generated), and the
// draining check, the memo lookup, the in-flight coalescer and the
// scheduler's queue bound all decide from that plan. Only a job the
// scheduler grants CPUs to builds its input, as the first step of its
// Run closure.
//
// Identical submissions are served without recomputation: the request's
// canonical content digest (workload + input parameters + engine +
// config overlay + seed — scheduling hints excluded) is looked up in the
// memo cache first, and a hit mints a jobless terminal record instantly
// with Cached set and ExecutedBy naming the original executor — no
// input build, no scheduler admission, no CPU grant, so saturated queues
// drain under repeat traffic. A concurrent identical submission
// coalesces onto the in-flight leader instead: the follower gets its own
// job id and record but attaches a waiter to the leader's execution,
// observing its completion, error or cancellation.
func (s *Service) Admit(req *JobRequest, rec *obs.Recorder) (j Job, cached bool, err error) {
	p, err := resolve(req, s.machine)
	if err != nil {
		return nil, false, fmt.Errorf("bad request: %v", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, sched.ErrDraining
	}
	if p.cfg.Stream != nil {
		// Streaming sessions skip memoization and coalescing entirely:
		// their result depends on chunks that arrive after admission,
		// so no content digest can stand in for the computation.
		e, err := s.openStreamLocked(p, rec)
		if err != nil {
			return nil, false, err
		}
		return e, false, nil
	}
	if v, ok := s.cache.Get(p.digest); ok {
		return s.memoHitLocked(p, v.(*cachedRun), rec), true, nil
	}
	if leader, ok := s.inflight[p.digest]; ok {
		leader.job.AddWaiter()
		f := &entry{
			Settlement: NewSettlement(),
			id:         s.sch.ReserveID(),
			workload:   leader.workload,
			engine:     leader.engine,
			job:        leader.job,
			digest:     p.digest,
			leader:     leader,
			rec:        rec,
		}
		rec.SetJob(f.id, f.workload)
		rec.Instant("coalesced", map[string]any{"leader": leader.id})
		s.entries[f.id] = f
		s.cache.NoteCoalesced()
		s.ring.Append("coalesced", f.id, map[string]any{"leader": leader.id})
		s.jobLog(f).Info("job coalesced onto in-flight leader", "leader_id", leader.id)
		s.watchers.Add(1)
		go s.watchFollower(f, p.priority.String())
		return f, false, nil
	}

	e := &entry{workload: p.app, engine: p.engine, digest: p.digest, rec: rec}
	err = s.launchLocked(e, p, func(ctx context.Context, grant []int) error {
		return s.runBatch(ctx, grant, e, p)
	})
	if err != nil {
		return nil, false, err
	}
	s.inflight[p.digest] = e
	s.jobLog(e).Info("job admitted", "workload", e.workload,
		"priority", p.priority.String(), "engine", e.engine.String())
	return e, false, nil
}

// launchLocked hands e's execution to the scheduler — run fires under the
// grant, possibly before this returns — and, once admitted, gives e its
// id, its registry slot and telemetry registration, and the watcher that
// will settle it. Callers hold s.mu.
func (s *Service) launchLocked(e *entry, p *plan, run sched.RunFunc) error {
	e.Settlement, e.telem = NewSettlement(), telemetry.New()
	p.cfg.Telemetry = e.telem
	sj, err := s.sch.Submit(sched.JobSpec{
		Name:     p.app,
		Priority: p.priority,
		MinCPUs:  p.minCPUs,
		MaxCPUs:  p.maxCPUs,
		Run:      run,
		Metrics:  e.finalMetrics,
	})
	if err != nil {
		return err
	}
	e.id, e.job = sj.ID(), sj
	e.rec.SetJob(e.id, e.workload)
	s.entries[e.id] = e
	s.multi.Register(strconv.Itoa(e.id), map[string]string{
		"job": strconv.Itoa(e.id),
		"app": e.workload,
	}, e.telem)
	s.watchers.Add(1)
	go s.watch(e)
	return nil
}

// runBatch is a batch job's Run closure: materialise the input, then
// execute it, both under the job's CPU grant. The built job is a local —
// the scheduler drops the closure when the job turns terminal, so a
// retained record holds the run's result, never its input.
func (s *Service) runBatch(ctx context.Context, grant []int, e *entry, p *plan) error {
	rec := e.rec
	buildStart := time.Now()
	job, err := p.materialise()
	buildEnd := time.Now()
	rec.SpanAt("build", buildStart, buildEnd, nil)
	s.builds.Add(1)
	if err != nil {
		return err
	}
	if s.afterBuild != nil {
		s.afterBuild()
	}
	if err := ctx.Err(); err != nil {
		// Cancelled while the input was being built: nothing to run.
		return err
	}
	c := p.grantConfig(grant)
	c.Trace = rec // the run's worker lanes land under the job's lifecycle lane
	execStart := time.Now()
	info, err := job.RunCtx(ctx, p.engine, c)
	execEnd := time.Now()
	rec.SpanAt("execute", execStart, execEnd,
		map[string]any{"cpus": append([]int(nil), grant...)})
	if info != nil {
		info.Build = buildEnd.Sub(buildStart)
		recordRunDetail(rec, execStart, execEnd, info)
	}
	e.mu.Lock()
	e.info = info
	e.mu.Unlock()
	return err
}

// memoHitLocked answers a submission from the memo cache: a jobless
// terminal record with its own id (so its short hit-only trace stays
// retrievable at /jobs/{id}/trace) whose ExecutedBy names the job that
// actually computed the result. The record is born settled. Callers hold
// s.mu.
func (s *Service) memoHitLocked(p *plan, cv *cachedRun, rec *obs.Recorder) *entry {
	e := &entry{
		Settlement: NewSettlement(),
		id:         s.sch.ReserveID(),
		workload:   cv.workload,
		engine:     p.engine,
		digest:     p.digest,
		rec:        rec,
		execBy:     cv.jobID,
		hitAt:      time.Now(),
		info:       cv.info,
	}
	rec.SetJob(e.id, e.workload)
	rec.Instant("memo-hit", map[string]any{"executed_by": cv.jobID})
	rec.Finish("cached")
	s.entries[e.id] = e
	s.ring.Append("memo_hit", e.id, map[string]any{"executed_by": cv.jobID})
	s.jobLog(e).Info("job served from memo cache", "executed_by", cv.jobID)
	s.hist.e2e.Observe(time.Since(rec.Epoch()).Seconds(),
		e.workload, e.engine.String(), p.priority.String())
	s.settleLocked(e)
	return e
}

// recordRunDetail turns the finished run's measurements into trace
// events: the sequential engine phases laid end-to-end from the
// execution start, plus tuner and steal summaries as instants.
func recordRunDetail(rec *obs.Recorder, start, end time.Time, info *workloads.RunInfo) {
	t := start
	for _, p := range []struct {
		name string
		d    time.Duration
	}{
		{"phase:init", info.Phases.Init},
		{"phase:partition", info.Phases.Partition},
		{"phase:map-combine", info.Phases.MapCombine},
		{"phase:reduce", info.Phases.Reduce},
		{"phase:merge", info.Phases.Merge},
	} {
		if p.d <= 0 {
			continue
		}
		rec.SpanAt(p.name, t, t.Add(p.d), nil)
		t = t.Add(p.d)
	}
	if info.Tuner != nil {
		rec.InstantAt("tuner-decisions", end, map[string]any{"epochs": len(info.Tuner.Epochs)})
	}
	if st := info.Steal; st.TotalTasks()+info.Help.Tasks > 0 {
		rec.InstantAt("steal-summary", end, map[string]any{
			"local":           st.LocalTasks,
			"socket":          st.SocketTasks,
			"remote":          st.RemoteTasks,
			"remote_executed": st.RemoteExecuted,
			"helped":          info.Help.Tasks,
		})
	}
}

// localityGroups returns the distinct topology groups a CPU set spans.
func localityGroups(m *topology.Machine, cpus []int) []int {
	seen := map[int]bool{}
	var groups []int
	for _, id := range cpus {
		g, _ := m.GroupOf(id) // group 0 for a CPU the machine does not know
		if !seen[g] {
			seen[g] = true
			groups = append(groups, g)
		}
	}
	sort.Ints(groups)
	return groups
}

// observeLifecycle feeds the latency histograms from a settled job.
func (s *Service) observeLifecycle(e *entry, st sched.JobStatus, info *workloads.RunInfo, priority string) {
	labels := []string{e.workload, e.engine.String(), priority}
	s.hist.e2e.Observe(st.Finished.Sub(e.rec.Epoch()).Seconds(), labels...)
	if !st.Started.IsZero() {
		s.hist.queueWait.Observe(st.Started.Sub(st.QueuedAt).Seconds(), labels...)
		s.hist.alloc.Observe(st.AllocDur.Seconds(), labels...)
	}
	if info != nil {
		for phase, secs := range info.Phases.SecondsByPhase() {
			s.hist.phase.Observe(secs, e.workload, e.engine.String(), priority, phase)
		}
	}
}

// watch settles a leader once the scheduler finished its job: publish,
// then become terminal. The memo entry is sized, the histograms observe
// the settled timings and the scheduler-side spans are recorded while the
// record still reads live; then, in one s.mu critical section — so a
// racing submission either coalesces or hits the cache but never
// re-executes — the in-flight slot is released, a successful result enters
// the memo cache (byte-accounted by its JSON size), the settle span
// (scheduler finish → now: what publishing the run cost) and the root span
// close, the record settles and retention runs. So a client that saw done
// finds a repeat of the body a memo hit, and one that saw a failed or
// cancelled end (never cached) finds it a fresh execution.
func (s *Service) watch(e *entry) {
	defer s.watchers.Done()
	_ = e.job.Wait(context.Background())
	st := e.job.Status()
	if e.stream != nil {
		// Release chunk/close handlers waiting on a session that will
		// never start (job cancelled while queued, Run never invoked).
		// A no-op when the session was published.
		e.stream.fail(fmt.Errorf("streaming session over: job %s", st.State))
	}
	e.mu.Lock()
	info := e.info
	e.mu.Unlock()
	// Streaming results are never cached: the digest identifies the
	// session's shape, not the chunk sequence it ingested.
	var run *cachedRun
	var size int64
	if st.Err == nil && info != nil && e.stream == nil {
		run = &cachedRun{jobID: e.id, workload: e.workload, info: info}
		size = resultSize(info)
	}

	state := terminalState(st)
	s.observeLifecycle(e, st, info, st.Priority.String())
	st.TraceTo(e.rec, map[string]any{"groups": localityGroups(s.machine, st.Grant)})
	e.rec.SetError(st.Err)
	lg := s.jobLog(e).With("state", state)
	if !st.Started.IsZero() {
		lg = lg.With("wall", st.Finished.Sub(st.Started), "queue_wait", st.Started.Sub(st.QueuedAt))
	}
	if st.Err != nil {
		lg.Warn("job finished with error", "err", st.Err)
	} else {
		lg.Info("job finished")
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.inflight, e.digest)
	if run != nil {
		s.cache.Put(e.digest, run, size)
	}
	e.rec.SpanAt("settle", st.Finished, time.Now(), nil)
	e.rec.Finish(state)
	s.settleLocked(e)
}

// watchFollower settles a coalesced follower once its leader has: the
// follower reads the leader's result, so it may not turn terminal first.
// Queue-wait, grant and phase spans belong to the leader's trace; the
// follower's short trace records the coalesce decision and the terminal
// outcome.
func (s *Service) watchFollower(f *entry, priority string) {
	defer s.watchers.Done()
	<-f.leader.Settled()
	st := f.job.Status()
	state := terminalState(st)
	f.rec.SetError(st.Err)
	f.rec.Finish(state)
	s.hist.e2e.Observe(st.Finished.Sub(f.rec.Epoch()).Seconds(),
		f.workload, f.engine.String(), priority)
	s.jobLog(f).Info("coalesced job settled", "state", state, "leader_id", f.leader.id)
	s.mu.Lock()
	s.settleLocked(f)
	s.mu.Unlock()
}

// resultSize estimates a retained result's memory footprint as its JSON
// encoding (the same shape /jobs/{id}/result serves) plus a fixed
// overhead for the surrounding entry bookkeeping.
func resultSize(info *workloads.RunInfo) int64 {
	const overhead = 256
	b, err := json.Marshal(info)
	if err != nil {
		return 4096
	}
	return int64(len(b)) + overhead
}

// settleLocked turns e terminal — its publications are all in place —
// and, in the same critical section, enforces the retention bound: past
// s.retain settled entries the oldest-finished go, with their telemetry
// registrations. Whoever sees e terminal sees the registry within bounds.
func (s *Service) settleLocked(e *entry) {
	e.Settle()
	Retire(s.entries, s.retain, func(r *entry) time.Time { return r.jobStatus().Finished }, s.removeEntryLocked)
}

// removeEntryLocked deletes one job record and its telemetry
// registration, so the /metrics exposition drops the job's labels.
func (s *Service) removeEntryLocked(e *entry) {
	delete(s.entries, e.id)
	if e.telem != nil {
		s.multi.Unregister(strconv.Itoa(e.id))
	}
	if e.stream != nil {
		s.stream.lag.Delete(strconv.Itoa(e.id))
	}
}

// Shutdown stops admission and drains the scheduler: queued jobs still
// run, running jobs finish, and anything unfinished at ctx's deadline is
// cancelled (but its goroutine is awaited). It returns once every
// accepted job has settled, so drained implies terminal; results of jobs
// that did finish remain retrievable from the registry afterwards.
// /readyz reports 503 from the moment Shutdown is called.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.log.Info("service draining")
	err := s.sch.Drain(ctx)
	s.watchers.Wait()
	return err
}

// resultDoc is one job's document: the status served by GET /jobs, GET
// /jobs/{id} and POST /jobs, and — with the deep result fields at its end
// filled — the full result of GET /jobs/{id}/result and of a memo-hit
// POST.
type resultDoc struct {
	ID       int    `json:"id"`
	Workload string `json:"workload"`
	Engine   string `json:"engine"`
	Priority string `json:"priority"`
	State    string `json:"state"`
	Grant    []int  `json:"grant,omitempty"`
	QueuedAt string `json:"queued_at,omitempty"`
	Started  string `json:"started,omitempty"`
	Finished string `json:"finished,omitempty"`
	Error    string `json:"error,omitempty"`
	// Result summary, present once the job finished successfully. WallMS
	// is the engine's run time alone, BuildMS the input build before it.
	WallMS  float64        `json:"wall_ms,omitempty"`
	BuildMS float64        `json:"build_ms,omitempty"`
	Phases  *mr.PhaseTimes `json:"phases,omitempty"`
	Queue   *mr.QueueStats `json:"queue,omitempty"`
	Steal   *mr.StealStats `json:"steal,omitempty"`
	Help    *mr.HelpStats  `json:"help,omitempty"`
	Pairs   int            `json:"pairs,omitempty"`
	// ImbalanceP90 is the run's sampled queue occupancy-imbalance ratio
	// (p90 of max/mean depth per tick); 0 until the job finished with
	// telemetry.
	ImbalanceP90 float64 `json:"imbalance_p90,omitempty"`
	// ContentDigest is the canonical identity of the computation (the
	// memo cache key); two submissions with equal digests compute the
	// same result.
	ContentDigest string `json:"content_digest,omitempty"`
	// Cached marks a submission answered from the memo cache without a
	// scheduler admission. The record keeps its own ID (its hit-only
	// trace lives at /jobs/{id}/trace); ExecutedBy names the job that
	// originally executed the computation.
	Cached bool `json:"cached,omitempty"`
	// ExecutedBy is set on cached records: the id of the executing job.
	ExecutedBy int `json:"executed_by,omitempty"`
	// Coalesced marks a follower record: this submission attached to an
	// identical in-flight execution instead of starting its own.
	Coalesced bool `json:"coalesced,omitempty"`
	// Waiters counts the parties attached to the execution (submitter
	// plus coalesced duplicates); 0 once terminal records settle.
	Waiters int `json:"waiters,omitempty"`
	// Stream is present on streaming sessions: the resolved window spec
	// and, once the grant landed, the live ingestion counters.
	Stream *streamStatusDoc `json:"stream,omitempty"`
	// Deep result fields.
	Digest    string            `json:"digest,omitempty"`
	Telemetry *telemetry.Report `json:"telemetry,omitempty"`
	Tuner     *tunerSummary     `json:"tuner,omitempty"`
	// Partial is a shard job's exported key→value container (the cluster
	// coordinator's merge input); absent for unsharded runs.
	Partial *workloads.Partial `json:"partial,omitempty"`
}

// fill copies a settled run's figures into the document: the summary
// always, the deep result fields (output digest, telemetry and tuner
// reports, shard partial) when detail is set.
func (doc *resultDoc) fill(info *workloads.RunInfo, detail bool) {
	if info == nil {
		return
	}
	doc.WallMS = float64(info.Wall) / float64(time.Millisecond)
	doc.BuildMS = float64(info.Build) / float64(time.Millisecond)
	ph, q := info.Phases, info.Queue
	doc.Phases, doc.Queue = &ph, &q
	steal, help := info.Steal, info.Help
	doc.Steal, doc.Help = &steal, &help
	doc.Pairs = info.Pairs
	if rep := info.Telemetry; rep != nil {
		doc.ImbalanceP90 = rep.Imbalance.P90
	}
	if !detail {
		return
	}
	if info.Digest != 0 {
		doc.Digest = fmt.Sprintf("%016x", info.Digest)
	}
	doc.Telemetry = info.Telemetry
	doc.Partial = info.Partial
	if info.Tuner != nil {
		doc.Tuner = &tunerSummary{
			Epochs: len(info.Tuner.Epochs),
			Report: info.Tuner,
		}
	}
}

// tunerSummary is the retained per-job tuner report, flattened for JSON.
type tunerSummary struct {
	Epochs int `json:"epochs"`
	Report any `json:"report"`
}

func fmtTime(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

// doc renders e's status document, with the deep result fields when
// detail is set. A follower entry reports its own id but the shared
// execution's state, timings and result; a memo-hit record reports a
// settled terminal state. The result summary appears with the terminal
// state, not before it.
func (e *entry) doc(detail bool) resultDoc {
	js, state, settled := e.visible()
	doc := resultDoc{
		ID:            e.id,
		Workload:      e.workload,
		Engine:        e.engine.String(),
		State:         state,
		Grant:         js.Grant,
		QueuedAt:      fmtTime(js.QueuedAt),
		Started:       fmtTime(js.Started),
		Finished:      fmtTime(js.Finished),
		ContentDigest: e.digest,
		Cached:        e.job == nil,
		ExecutedBy:    e.execBy,
		Coalesced:     e.leader != nil,
		Waiters:       js.Waiters,
		Stream:        e.streamStatus(),
	}
	if e.job != nil {
		doc.Priority = js.Priority.String()
	}
	if js.Err != nil {
		doc.Error = js.Err.Error()
	}
	if settled {
		doc.fill(e.runInfo(), detail)
	}
	return doc
}

// The Job half of the front end's contract, on a registry entry.
func (e *entry) ID() int              { return e.id }
func (e *entry) Doc(detail bool) any  { return e.doc(detail) }
func (e *entry) Trace() *obs.Recorder { return e.rec }

// Handler returns the HTTP API: the shared job front end (see API) over
// this service, plus the worker-only routes registered on the same mux:
//
//	POST   /jobs/{id}/chunks     streaming: append a chunk (202/429/409)
//	GET    /jobs/{id}/windows    streaming: sealed window summaries
//	GET    /jobs/{id}/windows/{n} streaming: one sealed window (202 open)
//	POST   /jobs/{id}/close      streaming: seal final window and settle
//	GET    /debug/events         bounded ring of scheduler/memo events
func (s *Service) Handler() http.Handler {
	a := NewAPI(s, "job", s.log)
	a.mux.HandleFunc("POST /jobs/{id}/chunks", s.handleStreamChunk)
	a.mux.HandleFunc("GET /jobs/{id}/windows", s.handleStreamWindows)
	a.mux.HandleFunc("GET /jobs/{id}/windows/{n}", s.handleStreamWindow)
	a.mux.HandleFunc("POST /jobs/{id}/close", s.handleStreamClose)
	a.mux.HandleFunc("GET /debug/events", s.handleEvents)
	return a
}

// Job, Jobs, Ready and WriteMetrics implement Backend over the registry.
func (s *Service) Job(id int) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[id]; ok {
		return e, true
	}
	return nil, false
}

func (s *Service) Jobs() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, e)
	}
	return out
}

func (s *Service) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed
}

func (s *Service) WriteMetrics(w io.Writer) error { return s.multi.WritePrometheus(w) }

// handleEvents serves the bounded event log: scheduler transitions, memo
// hits and coalesces, oldest first. dropped counts events overwritten by
// the ring bound.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	events, total := s.ring.Snapshot()
	writeJSON(w, s.log, http.StatusOK, map[string]any{
		"capacity": s.ring.Cap(),
		"total":    total,
		"dropped":  total - uint64(len(events)),
		"events":   events,
	})
}

// Cancel implements Backend's DELETE with waiter-aware semantics:
//
//   - settled job or memo-hit record: nothing to cancel — the retained
//     record and its telemetry registration are removed and the terminal
//     state is reported.
//   - live job with other waiters attached (coalesced duplicates): this
//     record detaches and is removed; the shared execution keeps running
//     for the remaining waiters.
//   - live job, last waiter: the execution is cancelled (queued jobs
//     never start, running jobs drain) — or its run has just ended and is
//     being settled, and the cancel came too late; either way the record is
//     kept so the terminal state stays pollable.
//
// s.mu is held across the drop and the waiter count so that no submission
// coalesces onto the execution in between.
func (s *Service) Cancel(j Job) (state string, wasLive bool) {
	e := j.(*entry)
	_, state, settled := e.visible()
	s.mu.Lock()
	defer s.mu.Unlock()
	if settled || (!e.job.DropWaiter() && e.job.Waiters() > 0) {
		s.removeEntryLocked(e)
	}
	return state, !settled
}

// jobStats is one job's balance figures in the /stats document.
type jobStats struct {
	ID           int            `json:"id"`
	Workload     string         `json:"workload"`
	State        string         `json:"state"`
	Steal        *mr.StealStats `json:"steal,omitempty"`
	Help         *mr.HelpStats  `json:"help,omitempty"`
	ImbalanceP90 float64        `json:"imbalance_p90,omitempty"`
}

// memoStats is the /stats memoization-and-retention section.
type memoStats struct {
	memo.Stats
	// Builds counts materialised batch inputs (see Service.builds): with
	// admission ahead of the build it tracks executed jobs, not
	// submissions.
	Builds uint64 `json:"builds"`
	// RetainedJobs gauges the registry (bounded by the retention
	// discipline shared with the cache's LRU accounting).
	RetainedJobs int `json:"retained_jobs"`
	// RegisteredMetrics gauges live telemetry registrations — one per
	// retained leader; bounded cardinality is the leak regression check.
	RegisteredMetrics int `json:"registered_metrics"`
}

func (s *Service) memoStatsDoc() memoStats {
	s.mu.Lock()
	retained := len(s.entries)
	s.mu.Unlock()
	return memoStats{
		Stats:             s.cache.Stats(),
		Builds:            s.builds.Load(),
		RetainedJobs:      retained,
		RegisteredMetrics: s.multi.Len(),
	}
}

// runtimeStats is the /stats process-health section.
type runtimeStats struct {
	Version        string  `json:"version"`
	GoVersion      string  `json:"go_version"`
	UptimeSeconds  float64 `json:"uptime_seconds"`
	Goroutines     int     `json:"goroutines"`
	HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
	HeapSysBytes   uint64  `json:"heap_sys_bytes"`
	GCCycles       uint32  `json:"gc_cycles"`
}

// buildInfo reads the binary's module version and Go toolchain once.
var buildInfo = sync.OnceValues(func() (version, goVersion string) {
	version, goVersion = "unknown", runtime.Version()
	if bi, ok := debug.ReadBuildInfo(); ok {
		if v := bi.Main.Version; v != "" {
			version = v
		}
		if bi.GoVersion != "" {
			goVersion = bi.GoVersion
		}
	}
	return version, goVersion
})

func (s *Service) runtimeStatsDoc() runtimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	v, gv := buildInfo()
	return runtimeStats{
		Version:        v,
		GoVersion:      gv,
		UptimeSeconds:  time.Since(s.start).Seconds(),
		Goroutines:     runtime.NumGoroutine(),
		HeapAllocBytes: ms.HeapAlloc,
		HeapSysBytes:   ms.HeapSys,
		GCCycles:       ms.NumGC,
	}
}

// Stats implements Backend: scheduler occupancy, memo and retention,
// process health, the capability advertisement and per-job balance.
func (s *Service) Stats() any {
	st := s.sch.Stats()
	s.mu.Lock()
	jobs := make([]jobStats, 0, len(s.entries))
	for _, e := range s.entries {
		d := e.doc(false)
		jobs = append(jobs, jobStats{ID: d.ID, Workload: d.Workload, State: d.State, Steal: d.Steal, Help: d.Help, ImbalanceP90: d.ImbalanceP90})
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].ID < jobs[j].ID })
	return map[string]any{
		"scheduler":    st,
		"memo":         s.memoStatsDoc(),
		"runtime":      s.runtimeStatsDoc(),
		"capabilities": capabilitiesDoc(),
		"jobs":         jobs,
	}
}

// writeServiceProm is the telemetry.Multi extra writer: service-level
// families appended after the per-job exposition, so memo, retention and
// lifecycle-latency series stay scrapeable even when every job record
// has been deleted.
func (s *Service) writeServiceProm(w io.Writer) error {
	m := s.memoStatsDoc()
	v, gv := buildInfo()
	if _, err := fmt.Fprintf(w, `# HELP ramr_memo_hits_total Submissions answered from the result memo cache.
# TYPE ramr_memo_hits_total counter
ramr_memo_hits_total %d
# HELP ramr_memo_misses_total Submissions that found no cached result.
# TYPE ramr_memo_misses_total counter
ramr_memo_misses_total %d
# HELP ramr_memo_coalesced_total Duplicate submissions folded onto an in-flight execution.
# TYPE ramr_memo_coalesced_total counter
ramr_memo_coalesced_total %d
# HELP ramr_memo_evictions_total Cached results evicted to satisfy the byte bound.
# TYPE ramr_memo_evictions_total counter
ramr_memo_evictions_total %d
# HELP ramr_memo_cached_bytes Byte-accounted size of the result memo cache.
# TYPE ramr_memo_cached_bytes gauge
ramr_memo_cached_bytes %d
# HELP ramr_memo_cached_entries Results retained in the memo cache.
# TYPE ramr_memo_cached_entries gauge
ramr_memo_cached_entries %d
# HELP ramr_memo_max_bytes Configured memo cache byte bound.
# TYPE ramr_memo_max_bytes gauge
ramr_memo_max_bytes %d
# HELP ramr_service_builds_total Batch inputs materialised (one per executed job).
# TYPE ramr_service_builds_total counter
ramr_service_builds_total %d
# HELP ramr_service_jobs_retained Job records retained in the registry.
# TYPE ramr_service_jobs_retained gauge
ramr_service_jobs_retained %d
# HELP ramr_service_metrics_registered Live per-job telemetry registrations.
# TYPE ramr_service_metrics_registered gauge
ramr_service_metrics_registered %d
# HELP ramr_build_info Build metadata; value is always 1.
# TYPE ramr_build_info gauge
ramr_build_info{version=%q,go_version=%q} 1
# HELP ramr_service_uptime_seconds Seconds since the service started.
# TYPE ramr_service_uptime_seconds gauge
ramr_service_uptime_seconds %g
`,
		m.Hits, m.Misses, m.Coalesced, m.Evictions,
		m.Bytes, m.Entries, m.MaxBytes,
		m.Builds, m.RetainedJobs, m.RegisteredMetrics,
		v, gv, time.Since(s.start).Seconds()); err != nil {
		return err
	}
	for _, h := range []*telemetry.HistogramVec{
		s.hist.e2e, s.hist.queueWait, s.hist.alloc, s.hist.phase,
	} {
		if err := h.WritePrometheus(w); err != nil {
			return err
		}
	}
	return s.writeStreamProm(w)
}
