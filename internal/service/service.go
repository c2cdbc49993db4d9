// Package service is the multi-job front end over internal/sched: a JSON
// HTTP API through which clients submit named workloads, poll status,
// fetch results and cancel jobs, plus one shared Prometheus endpoint
// aggregating every job's live telemetry under per-job labels. The ramrd
// daemon (cmd/ramrd) is a thin flag-parsing wrapper around this package.
//
// Every submission carries a lifecycle trace (internal/obs): receive,
// memo outcome, queue wait, grant allocation, input build and the
// engine's phase and worker spans, retrievable as Chrome-trace JSON at
// GET /jobs/{id}/trace. Scheduler transitions and memo outcomes also
// land in a bounded ring (GET /debug/events), and job latencies feed the
// ramr_job_* Prometheus histograms. See DESIGN.md §13.
package service

import (
	"bytes"
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
	"ramr/internal/trace"
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

	mu       sync.Mutex
	entries  map[int]*entry
	inflight map[string]*entry // content digest → live leader entry
	closed   bool
}

// entry is one submitted job's retained state. The RunInfo (phase times,
// queue stats, telemetry and tuner reports) is kept until the job is
// deleted or the retention bound evicts it, so results survive the run
// itself. A coalesced duplicate submission gets a follower entry: its
// own id, but the leader's sched.Job (one waiter reference each) and the
// leader's RunInfo — it observes the leader's completion, error and
// cancellation. A memo hit gets a jobless record (job == nil): its own
// id, a short hit-only trace, and execBy naming the executor.
type entry struct {
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
	engine   string
	finished time.Time
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

// Submit admits one parsed job request. It is the programmatic core of
// POST /jobs; the HTTP handler only decodes JSON around it.
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
func (s *Service) Submit(req *JobRequest) (*resultDoc, error) {
	rec := req.rec
	if rec == nil {
		rec = obs.New("job")
	}
	p, err := resolve(req, s.machine)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	if p.cfg.Stream != nil {
		// Streaming sessions skip memoization and coalescing entirely:
		// their result depends on chunks that arrive after admission,
		// so no content digest can stand in for the computation.
		return s.submitStream(p, rec)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, sched.ErrDraining
	}
	if v, ok := s.cache.Get(p.digest); ok {
		return s.memoHitLocked(p, v.(*cachedRun), rec), nil
	}
	if leader, ok := s.inflight[p.digest]; ok {
		leader.job.AddWaiter()
		f := &entry{
			id:       s.sch.ReserveID(),
			workload: leader.workload,
			engine:   leader.engine,
			job:      leader.job,
			digest:   p.digest,
			leader:   leader,
			rec:      rec,
		}
		rec.SetJob(f.id, f.workload)
		rec.Instant("coalesced", map[string]any{"leader": leader.id})
		s.entries[f.id] = f
		s.cache.NoteCoalesced()
		s.ring.Append("coalesced", f.id, map[string]any{"leader": leader.id})
		s.jobLog(f).Info("job coalesced onto in-flight leader", "leader_id", leader.id)
		go s.watchFollower(f, p.priority.String())
		doc := resultDoc{entryStatus: s.statusLocked(f)}
		return &doc, nil
	}

	e := &entry{
		workload: p.app,
		engine:   p.engine,
		telem:    telemetry.New(),
		digest:   p.digest,
		rec:      rec,
	}
	p.cfg.Telemetry = e.telem
	sj, err := s.sch.Submit(sched.JobSpec{
		Name:     p.app,
		Priority: p.priority,
		MinCPUs:  p.minCPUs,
		MaxCPUs:  p.maxCPUs,
		Run: func(ctx context.Context, grant []int) error {
			return s.runBatch(ctx, grant, e, p)
		},
		Metrics: e.finalMetrics,
	})
	if err != nil {
		return nil, err
	}
	e.id = sj.ID()
	e.job = sj
	rec.SetJob(e.id, e.workload)
	s.entries[e.id] = e
	s.inflight[p.digest] = e
	s.multi.Register(strconv.Itoa(e.id), map[string]string{
		"job": strconv.Itoa(e.id),
		"app": e.workload,
	}, e.telem)
	s.jobLog(e).Info("job admitted", "workload", e.workload,
		"priority", p.priority.String(), "engine", e.engine.String())
	go s.watch(e)
	doc := resultDoc{entryStatus: s.statusLocked(e)}
	return &doc, nil
}

// runBatch is a batch job's Run closure: materialise the input, then
// execute it, both under the job's CPU grant. The built job is a local —
// the scheduler drops the closure when the job turns terminal, so a
// retained record holds the run's result, never its input.
func (s *Service) runBatch(ctx context.Context, grant []int, e *entry, p *plan) error {
	rec := e.rec
	endBuild := rec.Span("build", nil)
	job, err := p.materialise()
	endBuild()
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
	// Worker-lane tracing for this run, stitched under the
	// lifecycle root at export time.
	col := trace.New()
	c.Trace = col
	rec.AttachEngine(col)
	execStart := time.Now()
	info, err := job.RunCtx(ctx, p.engine, c)
	execEnd := time.Now()
	rec.SpanAt("execute", execStart, execEnd,
		map[string]any{"cpus": append([]int(nil), grant...)})
	if info != nil {
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
// actually computed the result. Callers hold s.mu.
func (s *Service) memoHitLocked(p *plan, cv *cachedRun, rec *obs.Recorder) *resultDoc {
	e := &entry{
		id:       s.sch.ReserveID(),
		workload: cv.workload,
		engine:   p.engine,
		digest:   p.digest,
		rec:      rec,
		execBy:   cv.jobID,
		hitAt:    time.Now(),
		info:     cv.info,
	}
	rec.SetJob(e.id, e.workload)
	rec.Instant("memo-hit", map[string]any{"executed_by": cv.jobID})
	rec.Finish("cached")
	s.entries[e.id] = e
	s.ring.Append("memo_hit", e.id, map[string]any{"executed_by": cv.jobID})
	s.jobLog(e).Info("job served from memo cache", "executed_by", cv.jobID)
	s.hist.e2e.Observe(time.Since(rec.Epoch()).Seconds(),
		e.workload, e.engine.String(), p.priority.String())
	s.retireLocked()
	doc := resultDoc{entryStatus: s.statusLocked(e)}
	doc.fillDetail(cv.info)
	return &doc
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
	if st := info.Steal; st.LocalTasks+st.SocketTasks+st.RemoteTasks > 0 {
		rec.InstantAt("steal-summary", end, map[string]any{
			"local":           st.LocalTasks,
			"socket":          st.SocketTasks,
			"remote":          st.RemoteTasks,
			"remote_executed": st.RemoteExecuted,
		})
	}
}

// terminalStatus maps a settled job to the trace's root-span status.
func terminalStatus(st sched.JobStatus) string {
	switch {
	case st.State == sched.StateCanceled:
		return "canceled"
	case st.Err != nil:
		return "error"
	default:
		return "done"
	}
}

// finishTrace derives the scheduler-side spans from the job's settled
// timestamps — queue wait between admission and start, grant allocation
// just before the start with the CPU set and its locality groups as
// args — and closes the root span. Recording at completion rather than
// from the scheduler observer keeps the observer reentrancy-free and
// covers each interval exactly.
func (s *Service) finishTrace(e *entry, st sched.JobStatus) string {
	if !st.Started.IsZero() {
		e.rec.SpanAt("queue-wait", st.QueuedAt, st.Started, nil)
		e.rec.SpanAt("grant-alloc", st.Started.Add(-st.AllocDur), st.Started, map[string]any{
			"cpus":   st.Grant,
			"groups": localityGroups(s.machine, st.Grant),
		})
	}
	status := terminalStatus(st)
	e.rec.Finish(status)
	return status
}

// localityGroups returns the distinct topology groups a CPU set spans.
func localityGroups(m *topology.Machine, cpus []int) []int {
	seen := map[int]bool{}
	var groups []int
	for _, id := range cpus {
		g, ok := m.GroupOf(id)
		if !ok {
			g = 0
		}
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

// watch settles a leader once its job reaches a terminal state: the
// trace is finished, histograms observe the settled timings, and the
// in-flight slot is released while — atomically with it, under s.mu, so
// a racing submission either coalesces or hits the cache but never
// re-executes — a successful result is inserted into the memo cache,
// byte-accounted by its JSON-encoded size. Failed and cancelled runs are
// never cached: the next identical submission re-executes.
func (s *Service) watch(e *entry) {
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

	status := s.finishTrace(e, st)
	s.observeLifecycle(e, st, info, st.Priority.String())
	lg := s.jobLog(e).With("state", status)
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
	// Streaming results are never cached: the digest identifies the
	// session's shape, not the chunk sequence it ingested.
	if st.Err == nil && info != nil && e.stream == nil {
		s.cache.Put(e.digest, &cachedRun{
			jobID:    e.id,
			workload: e.workload,
			engine:   e.engine.String(),
			finished: st.Finished,
			info:     info,
		}, resultSize(info))
	}
	s.retireLocked()
}

// watchFollower settles a coalesced follower's trace and end-to-end
// latency once the shared execution completes. Queue-wait, grant and
// phase spans belong to the leader's trace; the follower's short trace
// records the coalesce decision and the terminal outcome.
func (s *Service) watchFollower(f *entry, priority string) {
	_ = f.job.Wait(context.Background())
	st := f.job.Status()
	status := terminalStatus(st)
	f.rec.Finish(status)
	s.hist.e2e.Observe(st.Finished.Sub(f.rec.Epoch()).Seconds(),
		f.workload, f.engine.String(), priority)
	s.jobLog(f).Info("coalesced job settled", "state", status, "leader_id", f.leader.id)
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

// retireLocked enforces the registry retention bound: when more than
// s.retain entries are terminal, the oldest-finished are removed along
// with their telemetry registrations. Live entries are never touched.
func (s *Service) retireLocked() {
	if s.retain < 0 {
		return
	}
	type finished struct {
		e  *entry
		at time.Time
	}
	var done []finished
	for _, e := range s.entries {
		js := e.jobStatus()
		if js.State == sched.StateDone || js.State == sched.StateCanceled {
			done = append(done, finished{e, js.Finished})
		}
	}
	if len(done) <= s.retain {
		return
	}
	sort.Slice(done, func(i, j int) bool {
		if !done[i].at.Equal(done[j].at) {
			return done[i].at.Before(done[j].at)
		}
		return done[i].e.id < done[j].e.id
	})
	for _, f := range done[:len(done)-s.retain] {
		s.removeEntryLocked(f.e)
	}
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
// cancelled (but its goroutine is awaited). Results of jobs that did
// finish remain retrievable from the registry afterwards. /readyz
// reports 503 from the moment Shutdown is called.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.log.Info("service draining")
	return s.sch.Drain(ctx)
}

// errBadRequest marks client errors (HTTP 400).
var errBadRequest = errors.New("bad request")

// entryStatus is the status document for one job, shared by GET /jobs
// and GET /jobs/{id}.
type entryStatus struct {
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
	// Result summary, present once the job finished successfully.
	WallMS float64        `json:"wall_ms,omitempty"`
	Phases *mr.PhaseTimes `json:"phases,omitempty"`
	Queue  *mr.QueueStats `json:"queue,omitempty"`
	Steal  *mr.StealStats `json:"steal,omitempty"`
	Pairs  int            `json:"pairs,omitempty"`
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
}

// resultDoc is the full result document for GET /jobs/{id}/result, and
// the POST /jobs response body (Digest/Telemetry/Tuner populated only
// for cache hits there).
type resultDoc struct {
	entryStatus
	Digest    string            `json:"digest,omitempty"`
	Telemetry *telemetry.Report `json:"telemetry,omitempty"`
	Tuner     *tunerSummary     `json:"tuner,omitempty"`
	// Partial is a shard job's exported key→value container (the cluster
	// coordinator's merge input); absent for unsharded runs.
	Partial *workloads.Partial `json:"partial,omitempty"`
}

// fillResult copies a finished run's summary figures into the status.
func fillResult(st *entryStatus, info *workloads.RunInfo) {
	if info == nil {
		return
	}
	st.WallMS = float64(info.Wall) / float64(time.Millisecond)
	ph, q := info.Phases, info.Queue
	st.Phases, st.Queue = &ph, &q
	steal := info.Steal
	st.Steal = &steal
	st.Pairs = info.Pairs
	if rep := info.Telemetry; rep != nil {
		st.ImbalanceP90 = rep.Imbalance.P90
	}
}

// fillDetail adds the deep result fields (output digest, telemetry and
// tuner reports) to the document.
func (doc *resultDoc) fillDetail(info *workloads.RunInfo) {
	if info == nil {
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

// statusLocked renders e's status; callers hold s.mu. A follower entry
// reports its own id but the shared execution's state, timings and
// result; a memo-hit record reports a settled terminal state.
func (s *Service) statusLocked(e *entry) entryStatus {
	js := e.jobStatus()
	st := entryStatus{
		ID:            e.id,
		Workload:      e.workload,
		Engine:        e.engine.String(),
		State:         js.State.String(),
		Grant:         js.Grant,
		QueuedAt:      fmtTime(js.QueuedAt),
		Started:       fmtTime(js.Started),
		Finished:      fmtTime(js.Finished),
		ContentDigest: e.digest,
		Cached:        e.job == nil,
		ExecutedBy:    e.execBy,
		Coalesced:     e.leader != nil,
		Waiters:       js.Waiters,
	}
	if e.job != nil {
		st.Priority = js.Priority.String()
	}
	if js.Err != nil {
		st.Error = js.Err.Error()
	}
	st.Stream = e.streamStatus()
	fillResult(&st, e.runInfo())
	return st
}

// Handler returns the HTTP API:
//
//	POST   /jobs             submit (429 when saturated, 503 when draining)
//	GET    /jobs             list all retained jobs
//	GET    /jobs/{id}        status: state, grant, phase times, queue stats
//	GET    /jobs/{id}/result full result incl. telemetry and tuner reports;
//	                         ?wait=5s blocks until the job settles (202 on lapse)
//	GET    /jobs/{id}/trace  lifecycle + worker-lane Chrome-trace JSON
//	DELETE /jobs/{id}        cancel (queued, running or streaming)
//	POST   /jobs/{id}/chunks     streaming: append a chunk (202/429/409)
//	GET    /jobs/{id}/windows    streaming: sealed window summaries
//	GET    /jobs/{id}/windows/{n} streaming: one sealed window (202 open)
//	POST   /jobs/{id}/close      streaming: seal final window and settle
//	GET    /stats            scheduler occupancy, memo, runtime sections
//	GET    /metrics          aggregated Prometheus exposition, per-job labels
//	GET    /debug/events     bounded ring of scheduler/memo events
//	GET    /healthz          liveness
//	GET    /readyz           readiness (503 while draining)
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /jobs/{id}/chunks", s.handleStreamChunk)
	mux.HandleFunc("GET /jobs/{id}/windows", s.handleStreamWindows)
	mux.HandleFunc("GET /jobs/{id}/windows/{n}", s.handleStreamWindow)
	mux.HandleFunc("POST /jobs/{id}/close", s.handleStreamClose)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.Handle("GET /metrics", s.multi.Handler())
	mux.HandleFunc("GET /debug/events", s.handleEvents)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	return withProto(mux)
}

// handleReady is the readiness probe: 503 from the moment Shutdown
// starts draining, so load balancers stop routing before the listener
// closes (the liveness probe /healthz keeps answering 200 throughout).
func (s *Service) handleReady(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n"))
}

// writeJSON encodes v fully before touching the ResponseWriter: a
// marshal failure becomes a logged 500 instead of a silently truncated
// body half-written after a success header. lg carries the caller's
// correlation attributes (job_id, content_digest) so the error lines
// stay attributable.
func writeJSON(w http.ResponseWriter, lg *slog.Logger, code int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		lg.Error("service: encoding response", "type", fmt.Sprintf("%T", v), "err", err)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		io.WriteString(w, `{"error":"internal: response encoding failed"}`+"\n")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if _, err := buf.WriteTo(w); err != nil {
		// The body was fully rendered; a short write here is the
		// client hanging up, which is only worth a log line.
		lg.Warn("service: writing response", "err", err)
	}
}

func writeErr(w http.ResponseWriter, lg *slog.Logger, code int, err error) {
	writeJSON(w, lg, code, map[string]string{"error": err.Error()})
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// The recorder's epoch is the HTTP receive; the decode rides in the
	// root span's opening "receive" segment.
	rec := obs.New("job")
	endReceive := rec.Span("receive", nil)
	var req JobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	endReceive()
	if err != nil {
		writeErr(w, s.log, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	req.rec = rec
	doc, err := s.Submit(&req)
	switch {
	case err == nil && doc.Cached:
		// Served from the memo cache: no execution was started, so 200
		// with the finished result, not 201 with a Location.
		writeJSON(w, s.log.With("job_id", doc.ID), http.StatusOK, doc)
	case err == nil:
		w.Header().Set("Location", "/jobs/"+strconv.Itoa(doc.ID))
		writeJSON(w, s.log.With("job_id", doc.ID), http.StatusCreated, doc)
	case errors.Is(err, sched.ErrSaturated):
		s.log.Warn("job rejected: queue saturated", "workload", req.Workload)
		writeErr(w, s.log, http.StatusTooManyRequests, err)
	case errors.Is(err, sched.ErrDraining):
		writeErr(w, s.log, http.StatusServiceUnavailable, err)
	default:
		writeErr(w, s.log, http.StatusBadRequest, err)
	}
}

// sortByID orders a document slice by job id — stable output for
// clients and tests.
func sortByID[T any](xs []T, id func(T) int) {
	sort.Slice(xs, func(i, j int) bool { return id(xs[i]) < id(xs[j]) })
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]entryStatus, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, s.statusLocked(e))
	}
	s.mu.Unlock()
	sortByID(out, func(e entryStatus) int { return e.ID })
	writeJSON(w, s.log, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Service) lookup(r *http.Request) (*entry, error) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		return nil, fmt.Errorf("invalid job id %q", r.PathValue("id"))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	if !ok {
		return nil, fmt.Errorf("no job %d", id)
	}
	return e, nil
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	e, err := s.lookup(r)
	if err != nil {
		writeErr(w, s.log, http.StatusNotFound, err)
		return
	}
	s.mu.Lock()
	st := s.statusLocked(e)
	s.mu.Unlock()
	writeJSON(w, s.jobLog(e), http.StatusOK, st)
}

// MaxResultWait caps the wait query parameter of GET /jobs/{id}/result.
const MaxResultWait = 30 * time.Second

// ParseResultWait reads the wait query parameter of a result request: a
// Go duration, capped at MaxResultWait; absent means 0 (answer at once).
func ParseResultWait(r *http.Request) (time.Duration, error) {
	v := r.URL.Query().Get("wait")
	if v == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("invalid wait %q (want a non-negative duration such as 5s)", v)
	}
	return min(d, MaxResultWait), nil
}

// handleResult implements GET /jobs/{id}/result[?wait=<duration>]: 200
// with the full result once the job is terminal, 202 with the status
// while it is not. With wait the handler blocks on the job's completion
// — not on a timer — and answers 200 the moment it settles, or 202 when
// the wait lapses or the client goes away.
func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	e, err := s.lookup(r)
	if err != nil {
		writeErr(w, s.log, http.StatusNotFound, err)
		return
	}
	wait, err := ParseResultWait(r)
	if err != nil {
		writeErr(w, s.jobLog(e), http.StatusBadRequest, err)
		return
	}
	if wait > 0 && e.job != nil {
		ctx, cancel := context.WithTimeout(r.Context(), wait)
		_ = e.job.Wait(ctx)
		cancel()
	}
	s.mu.Lock()
	st := s.statusLocked(e)
	s.mu.Unlock()
	if st.State == "queued" || st.State == "running" {
		writeJSON(w, s.jobLog(e), http.StatusAccepted, st)
		return
	}
	doc := resultDoc{entryStatus: st}
	doc.fillDetail(e.runInfo())
	writeJSON(w, s.jobLog(e), http.StatusOK, doc)
}

// handleTrace serves the job's lifecycle trace as Chrome trace-event
// JSON (load at ui.perfetto.dev): root span, service-tier spans, and the
// run's worker lanes stitched below. Live jobs serve the spans recorded
// so far; terminal jobs serve the full tree.
func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	e, err := s.lookup(r)
	if err != nil {
		writeErr(w, s.log, http.StatusNotFound, err)
		return
	}
	if e.rec == nil {
		writeErr(w, s.jobLog(e), http.StatusNotFound, fmt.Errorf("no trace recorded for job %d", e.id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := e.rec.WriteChromeTrace(w); err != nil {
		s.jobLog(e).Warn("service: writing trace", "err", err)
	}
}

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

// handleCancel implements DELETE /jobs/{id} with waiter-aware
// semantics:
//
//   - finished (done/canceled) job or memo-hit record: nothing to cancel
//     — the retained record and its telemetry registration are removed,
//     and 409 Conflict reports the terminal state so the client can tell
//     a real cancellation from this no-op (204 used to lie here).
//   - live job with other waiters attached (coalesced duplicates): this
//     record detaches and is removed; the shared execution keeps running
//     for the remaining waiters. 204.
//   - live job, last waiter: the execution is cancelled (queued jobs
//     never start, running jobs drain); the record is kept so the
//     terminal canceled state stays pollable. 204.
func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	e, err := s.lookup(r)
	if err != nil {
		writeErr(w, s.log, http.StatusNotFound, err)
		return
	}
	js := e.jobStatus()
	if js.State == sched.StateDone || js.State == sched.StateCanceled {
		s.mu.Lock()
		s.removeEntryLocked(e)
		s.mu.Unlock()
		s.jobLog(e).Info("retained record deleted", "state", js.State.String())
		writeJSON(w, s.jobLog(e), http.StatusConflict, map[string]string{
			"error": fmt.Sprintf("job %d already %s; retained record deleted", e.id, js.State),
			"state": js.State.String(),
		})
		return
	}
	if cancelled := e.job.DropWaiter(); !cancelled {
		// Detached from a still-live coalesced execution (or lost a race
		// with its completion): this record is dead either way.
		s.mu.Lock()
		s.removeEntryLocked(e)
		s.mu.Unlock()
	}
	s.jobLog(e).Info("job cancel requested")
	w.WriteHeader(http.StatusNoContent)
}

// jobStats is one job's balance figures in the /stats document.
type jobStats struct {
	ID           int            `json:"id"`
	Workload     string         `json:"workload"`
	State        string         `json:"state"`
	Steal        *mr.StealStats `json:"steal,omitempty"`
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

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.sch.Stats()
	s.mu.Lock()
	jobs := make([]jobStats, 0, len(s.entries))
	for _, e := range s.entries {
		js := jobStats{ID: e.id, Workload: e.workload, State: e.jobStatus().State.String()}
		if info := e.runInfo(); info != nil {
			steal := info.Steal
			js.Steal = &steal
			if rep := info.Telemetry; rep != nil {
				js.ImbalanceP90 = rep.Imbalance.P90
			}
		}
		jobs = append(jobs, js)
	}
	s.mu.Unlock()
	sortByID(jobs, func(j jobStats) int { return j.ID })
	writeJSON(w, s.log, http.StatusOK, map[string]any{
		"scheduler":    st,
		"memo":         s.memoStatsDoc(),
		"runtime":      s.runtimeStatsDoc(),
		"capabilities": capabilitiesDoc(),
		"jobs":         jobs,
	})
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
