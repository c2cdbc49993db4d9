// Package sched multiplexes the host's logical-CPU budget across
// concurrent MapReduce jobs. Each admitted job receives a *grant* — a
// disjoint, locality-dense set of logical CPUs carved out of the shared
// budget — and runs with mr.Config.CPUGrant restricted to it, so RAMR's
// contention-aware pinning stays valid even with neighbours on the same
// machine. The scheduler is the multi-tenancy layer the DATE'20 paper
// leaves implicit: its single-job runtime assumes it owns the machine,
// which no shared deployment can honour.
//
// Admission is bounded (Submit fails fast with ErrSaturated when the
// queue is full — the job service maps that to HTTP 429), ordering is
// deficit-weighted fair-share across three priority classes, and freed
// CPUs are offered to the longest-waiting job first so large jobs cannot
// be starved by a stream of small ones. All policy decisions are
// deterministic for a fixed Config.Seed and submission order.
package sched

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"math/rand"
	"sort"
	"sync"
	"time"

	"ramr/internal/obs"
	"ramr/internal/topology"
)

// Priority is a job's service class. Higher classes accumulate
// fair-share deficit faster (weights 1/2/4) and therefore dispatch more
// often under contention, but no class is ever starved: deficit-weighted
// round-robin guarantees every backlogged class a share proportional to
// its weight.
type Priority int

const (
	// PriorityLow is background work (weight 1).
	PriorityLow Priority = iota
	// PriorityNormal is the default class (weight 2).
	PriorityNormal
	// PriorityHigh is latency-sensitive work (weight 4).
	PriorityHigh
	numClasses = 3
)

// String names the priority class.
func (p Priority) String() string {
	switch p {
	case PriorityLow:
		return "low"
	case PriorityNormal:
		return "normal"
	case PriorityHigh:
		return "high"
	default:
		return fmt.Sprintf("Priority(%d)", int(p))
	}
}

// ParsePriority converts a class name ("low", "normal", "high", or empty
// for the default) to a Priority.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "low":
		return PriorityLow, nil
	case "", "normal":
		return PriorityNormal, nil
	case "high":
		return PriorityHigh, nil
	default:
		return 0, fmt.Errorf("sched: unknown priority %q", s)
	}
}

func (p Priority) weight() int {
	switch p {
	case PriorityHigh:
		return 4
	case PriorityNormal:
		return 2
	default:
		return 1
	}
}

// State is a job's lifecycle position.
type State int

const (
	// StateQueued means admitted but not yet granted CPUs.
	StateQueued State = iota
	// StateRunning means executing on its grant.
	StateRunning
	// StateDone means finished (successfully or with an error).
	StateDone
	// StateCanceled means removed from the queue before starting.
	StateCanceled
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Errors returned by Submit.
var (
	// ErrSaturated means the bounded admission queue is full. Callers
	// should back off and retry; the job service maps it to HTTP 429.
	ErrSaturated = errors.New("sched: admission queue full")
	// ErrDraining means the scheduler is shutting down and no longer
	// admits work.
	ErrDraining = errors.New("sched: scheduler draining")
)

// RunFunc executes a job on its CPU grant. The grant is disjoint from
// every other concurrently running job's grant; implementations pass it
// to mr.Config.ApplyGrant so pinning and both worker pools stay inside
// it. The context is cancelled by Job.Cancel and by Drain's
// deadline; implementations must return promptly once it fires.
type RunFunc func(ctx context.Context, grant []int) error

// JobSpec describes one job submission.
type JobSpec struct {
	// Name labels the job in events and status reports.
	Name string
	// Priority is the service class; zero value is PriorityLow, so
	// most callers set PriorityNormal explicitly (the service layer
	// defaults to it).
	Priority Priority
	// MinCPUs is the smallest acceptable grant; 0 means 1. A job never
	// starts with fewer CPUs.
	MinCPUs int
	// MaxCPUs caps the grant; 0 means the whole budget. The scheduler
	// grants min(MaxCPUs, free CPUs) at dispatch time, never below
	// MinCPUs.
	MaxCPUs int
	// Run executes the job. Required.
	Run RunFunc
}

// EventKind tags an Event.
type EventKind int

const (
	// EventQueued fires when a job is admitted to the queue.
	EventQueued EventKind = iota
	// EventStarted fires when a job is granted CPUs and dispatched.
	EventStarted
	// EventFinished fires when a running job returns.
	EventFinished
	// EventCanceled fires when a queued job is cancelled before start.
	EventCanceled
)

// String names the event kind for logs and event rings.
func (k EventKind) String() string {
	switch k {
	case EventQueued:
		return "queued"
	case EventStarted:
		return "started"
	case EventFinished:
		return "finished"
	case EventCanceled:
		return "canceled"
	}
	return "unknown"
}

// Event is a scheduler state transition, delivered to Config.Observer
// while the scheduler lock is held — the observer sees a consistent
// snapshot, and InUse <= Budget is an invariant tests assert on every
// event. Observers must not call back into the scheduler.
type Event struct {
	Kind  EventKind
	JobID int
	Name  string
	// Grant is the job's CPU set (EventStarted/EventFinished); shared,
	// do not mutate.
	Grant []int
	// InUse is the total granted CPU count across running jobs after
	// this transition.
	InUse int
	// Queued is the admission-queue depth after this transition.
	Queued int
}

// Config parameterizes a Scheduler.
type Config struct {
	// Machine is the topology grants are carved from; nil detects the
	// host.
	Machine *topology.Machine
	// Budget is the number of logical CPUs the scheduler may hand out
	// concurrently; 0 or out-of-range means all of Machine's CPUs. The
	// budget is taken from the front of Machine.CompactOrder() so it is
	// locality-dense even when partial.
	Budget int
	// MaxQueued bounds the admission queue (jobs admitted but not yet
	// running); Submit returns ErrSaturated beyond it. 0 means
	// DefaultMaxQueued.
	MaxQueued int
	// Seed drives the scheduler's tie-break RNG. Equal seeds and equal
	// submission sequences produce identical placement decisions.
	Seed int64
	// Observer, when non-nil, receives every scheduler transition under
	// the scheduler lock. Test hook and telemetry tap.
	Observer func(Event)
	// Logger, when non-nil, receives a structured line per scheduler
	// transition (queued/started/finished/canceled), each carrying a
	// job_id attribute for correlation with the service tier's logs.
	// Handlers are invoked under the scheduler lock and must not call
	// back into the scheduler.
	Logger *slog.Logger
}

// DefaultMaxQueued is the admission-queue bound when Config.MaxQueued
// is 0.
const DefaultMaxQueued = 16

// Job is a handle on one submitted job.
type Job struct {
	id   int
	name string
	prio Priority

	s *Scheduler
	// run is dropped (under mu) when the job turns terminal: a retained
	// handle must not pin whatever the closure captured — typically the
	// job's whole input.
	run    RunFunc
	runCtx context.Context
	cancel context.CancelFunc
	done   chan struct{}

	minCPUs, maxCPUs int

	// seq is the global admission sequence number; the longest-waiting
	// job is the queued job with the smallest seq.
	seq int
	// skipped marks that a younger job started while this one did not
	// fit; it arms the dispatch reservation.
	skipped bool
	// waiters counts the parties observing this job's completion:
	// the submitter plus every coalesced duplicate submission attached
	// with AddWaiter (guarded by the owning scheduler's mu). DropWaiter
	// cancels the execution only when the last waiter detaches.
	waiters int

	// Guarded by the owning scheduler's mu.
	state    State
	grant    []int
	queuedAt time.Time
	started  time.Time
	finished time.Time
	allocDur time.Duration
	err      error
}

// JobStatus is a point-in-time snapshot of a job.
type JobStatus struct {
	ID       int
	Name     string
	Priority Priority
	State    State
	// Grant is the job's CPU set (copy); empty until started.
	Grant    []int
	QueuedAt time.Time
	Started  time.Time
	Finished time.Time
	// AllocDur is the time allocateLocked spent carving the job's grant
	// from the free set (zero until started) — the "grant allocation"
	// cost the observability layer attributes separately from queue wait.
	AllocDur time.Duration
	// Err is the job's terminal error, nil while live or on success.
	Err error
	// Waiters is the job's current waiter count (the submitter plus
	// coalesced duplicate submissions; see Job.AddWaiter).
	Waiters int
}

// TraceTo records the scheduler-side spans of a settled job on rec, derived
// from its timestamps: the queue wait between admission and start, and the
// grant allocation as that wait's tail, carrying the CPU set plus extra.
// Recording at settlement rather than from the scheduler's observer keeps
// the observer reentrancy-free and covers each interval exactly. A job that
// never started has neither span.
func (st JobStatus) TraceTo(rec *obs.Recorder, extra map[string]any) {
	if st.Started.IsZero() {
		return
	}
	rec.SpanAt("queue-wait", st.QueuedAt, st.Started, nil)
	args := map[string]any{"cpus": st.Grant}
	maps.Copy(args, extra)
	rec.SpanAt("grant-alloc", st.Started.Add(-st.AllocDur), st.Started, args)
}

// Stats summarizes scheduler occupancy.
type Stats struct {
	// Budget is the schedulable CPU count.
	Budget int
	// InUse is the number of CPUs currently granted.
	InUse int
	// Running and Queued are live job counts.
	Running int
	Queued  int
	// Accepted, Rejected, Finished, Canceled are lifetime counters.
	Accepted int
	Rejected int
	Finished int
	Canceled int
}

type classQueue struct {
	jobs    []*Job
	deficit int
}

// Scheduler owns a CPU budget and multiplexes it across jobs.
type Scheduler struct {
	machine   *topology.Machine
	budget    []int // schedulable CPU ids, compact order
	rank      map[int]int
	maxQueued int
	observer  func(Event)
	log       *slog.Logger

	mu       sync.Mutex
	rng      *rand.Rand
	free     map[int]bool
	classes  [numClasses]classQueue
	running  map[int]*Job
	draining bool
	seq      int
	nextID   int
	wg       sync.WaitGroup

	accepted, rejected, finished, canceled int
}

// New builds a Scheduler from cfg.
func New(cfg Config) (*Scheduler, error) {
	m := cfg.Machine
	if m == nil {
		m = topology.Detect()
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("sched: invalid machine: %w", err)
	}
	order := m.CompactOrder()
	budget := cfg.Budget
	if budget <= 0 || budget > len(order) {
		budget = len(order)
	}
	maxQueued := cfg.MaxQueued
	if maxQueued <= 0 {
		maxQueued = DefaultMaxQueued
	}
	s := &Scheduler{
		machine:   m,
		budget:    append([]int(nil), order[:budget]...),
		rank:      make(map[int]int, budget),
		maxQueued: maxQueued,
		observer:  cfg.Observer,
		log:       cfg.Logger,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		free:      make(map[int]bool, budget),
		running:   make(map[int]*Job),
	}
	for i, id := range s.budget {
		s.rank[id] = i
		s.free[id] = true
	}
	return s, nil
}

// Machine returns the topology grants are carved from.
func (s *Scheduler) Machine() *topology.Machine { return s.machine }

// ReserveID mints a job id from the scheduler's sequence without
// admitting any work. Layers that coalesce duplicate submissions onto
// one running job use it to hand each attached waiter a distinct id
// from the same space as real jobs, so ids never collide.
func (s *Scheduler) ReserveID() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	return s.nextID
}

// Budget returns the schedulable CPU count.
func (s *Scheduler) Budget() int { return len(s.budget) }

// Submit admits a job, or fails fast with ErrSaturated (queue full),
// ErrDraining (shutting down), or a validation error. Admitted jobs are
// dispatched as CPUs free up, in deficit-weighted fair-share order.
func (s *Scheduler) Submit(spec JobSpec) (*Job, error) {
	if spec.Run == nil {
		return nil, errors.New("sched: JobSpec.Run is required")
	}
	if spec.Priority < PriorityLow || spec.Priority > PriorityHigh {
		return nil, fmt.Errorf("sched: invalid priority %d", int(spec.Priority))
	}
	minCPUs := spec.MinCPUs
	if minCPUs <= 0 {
		minCPUs = 1
	}
	if minCPUs > len(s.budget) {
		return nil, fmt.Errorf("sched: MinCPUs %d exceeds budget %d", minCPUs, len(s.budget))
	}
	maxCPUs := spec.MaxCPUs
	if maxCPUs <= 0 || maxCPUs > len(s.budget) {
		maxCPUs = len(s.budget)
	}
	if maxCPUs < minCPUs {
		return nil, fmt.Errorf("sched: MaxCPUs %d below MinCPUs %d", spec.MaxCPUs, minCPUs)
	}

	ctx, cancel := context.WithCancel(context.Background())
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		cancel()
		return nil, ErrDraining
	}
	if s.queuedLocked() >= s.maxQueued {
		s.rejected++
		cancel()
		return nil, ErrSaturated
	}
	s.nextID++
	s.seq++
	j := &Job{
		id:       s.nextID,
		name:     spec.Name,
		prio:     spec.Priority,
		s:        s,
		cancel:   cancel,
		done:     make(chan struct{}),
		seq:      s.seq,
		state:    StateQueued,
		queuedAt: time.Now(),
		waiters:  1,
	}
	j.runCtx = ctx
	j.run = spec.Run
	j.minCPUs = minCPUs
	j.maxCPUs = maxCPUs
	s.accepted++
	q := &s.classes[spec.Priority]
	q.jobs = append(q.jobs, j)
	s.emit(Event{Kind: EventQueued, JobID: j.id, Name: j.name, InUse: s.inUseLocked(), Queued: s.queuedLocked()})
	if s.log != nil {
		s.log.Debug("sched: job queued", "job_id", j.id, "name", j.name,
			"priority", j.prio.String(), "queued", s.queuedLocked())
	}
	s.dispatchLocked()
	return j, nil
}

// Stats returns current occupancy and lifetime counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Budget:   len(s.budget),
		InUse:    s.inUseLocked(),
		Running:  len(s.running),
		Queued:   s.queuedLocked(),
		Accepted: s.accepted,
		Rejected: s.rejected,
		Finished: s.finished,
		Canceled: s.canceled,
	}
}

// Drain stops admission, lets queued jobs dispatch and running jobs
// finish, and cancels every remaining job when ctx expires. It returns
// nil when all work completed, or ctx.Err() if stragglers had to be
// cancelled (their RunFuncs are still waited for, so no goroutine
// outlives Drain).
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	live := s.liveLocked()
	s.mu.Unlock()

	var drainErr error
	for _, j := range live {
		select {
		case <-j.done:
		case <-ctx.Done():
			drainErr = ctx.Err()
		}
		if drainErr != nil {
			break
		}
	}
	if drainErr != nil {
		s.mu.Lock()
		for _, j := range s.liveLocked() {
			if j.state == StateQueued {
				s.removeQueuedLocked(j, context.Cause(ctx))
			} else {
				j.cancel()
			}
		}
		s.mu.Unlock()
	}
	s.wg.Wait()
	return drainErr
}

// --- internals ---

func (s *Scheduler) queuedLocked() int {
	n := 0
	for i := range s.classes {
		n += len(s.classes[i].jobs)
	}
	return n
}

func (s *Scheduler) inUseLocked() int {
	return len(s.budget) - len(s.free)
}

func (s *Scheduler) liveLocked() []*Job {
	var live []*Job
	for i := range s.classes {
		live = append(live, s.classes[i].jobs...)
	}
	for _, j := range s.running {
		live = append(live, j)
	}
	return live
}

func (s *Scheduler) emit(e Event) {
	if s.observer != nil {
		s.observer(e)
	}
}

// dispatchLocked starts as many queued jobs as the free CPUs allow.
// Deficit-weighted round-robin is the primary order, with one
// anti-starvation valve: once a job has been *passed over* — some
// younger job started while this one's MinCPUs exceeded the free CPUs —
// freed capacity is reserved for the longest-waiting such job until its
// minimum fits. Without the reservation a wide job can wait forever
// behind a stream of narrow ones that each fit the trickle of freed
// CPUs; with it the scheduler briefly stops being work-conserving, which
// is the price of a starvation-freedom guarantee.
func (s *Scheduler) dispatchLocked() {
	for {
		if oldest := s.longestWaitingLocked(); oldest != nil && oldest.skipped {
			if len(s.free) < oldest.minCPUs {
				return // accumulate freed CPUs for the starved job
			}
			s.startLocked(oldest)
			continue
		}
		j := s.pickDRRLocked()
		if j == nil {
			return
		}
		s.startLocked(j)
	}
}

// longestWaitingLocked returns the queued job with the smallest
// admission sequence number, or nil.
func (s *Scheduler) longestWaitingLocked() *Job {
	var oldest *Job
	for i := range s.classes {
		for _, j := range s.classes[i].jobs {
			if oldest == nil || j.seq < oldest.seq {
				oldest = j
			}
		}
	}
	return oldest
}

// pickDRRLocked selects the next job to start under deficit-weighted
// round-robin, or nil when nothing startable fits the free CPUs. Each
// backlogged class accrues deficit proportional to its weight; the class
// with the largest deficit whose head job fits is served and charged the
// granted CPU count. A class's deficit resets when its queue empties so
// idle classes cannot bank credit.
func (s *Scheduler) pickDRRLocked() *Job {
	if len(s.free) == 0 {
		return nil
	}
	fits := func(c *classQueue) *Job {
		if len(c.jobs) == 0 {
			return nil
		}
		if j := c.jobs[0]; len(s.free) >= j.minCPUs {
			return j
		}
		return nil
	}
	anyFit := false
	for i := range s.classes {
		if fits(&s.classes[i]) != nil {
			anyFit = true
			break
		}
	}
	if !anyFit {
		return nil
	}
	// Accrue deficit until some servable class goes positive. The loop
	// terminates because at least one servable class exists and every
	// backlogged class's deficit strictly increases per round.
	for {
		best := -1
		for i := numClasses - 1; i >= 0; i-- {
			c := &s.classes[i]
			if fits(c) == nil {
				continue
			}
			if c.deficit <= 0 {
				continue
			}
			if best < 0 || c.deficit > s.classes[best].deficit {
				best = i
			} else if c.deficit == s.classes[best].deficit && s.rng.Intn(2) == 0 {
				// Seeded tie-break keeps equal-deficit classes from
				// deterministically favouring one side.
				best = i
			}
		}
		if best >= 0 {
			return s.classes[best].jobs[0]
		}
		for i := range s.classes {
			c := &s.classes[i]
			if len(c.jobs) > 0 {
				c.deficit += Priority(i).weight()
			}
		}
	}
}

// startLocked carves a grant for j, removes it from its queue, and
// launches its RunFunc on a fresh goroutine.
func (s *Scheduler) startLocked(j *Job) {
	// Any older queued job that cannot fit the current free set is being
	// passed over by this dispatch; mark it so the anti-starvation
	// reservation in dispatchLocked kicks in on the next release.
	for i := range s.classes {
		for _, o := range s.classes[i].jobs {
			if o.seq < j.seq && o.minCPUs > len(s.free) {
				o.skipped = true
			}
		}
	}
	want := j.maxCPUs
	if free := len(s.free); want > free {
		want = free
	}
	allocStart := time.Now()
	grant := s.allocateLocked(want)
	j.allocDur = time.Since(allocStart)
	q := &s.classes[j.prio]
	for i, qj := range q.jobs {
		if qj == j {
			q.jobs = append(q.jobs[:i], q.jobs[i+1:]...)
			break
		}
	}
	q.deficit -= len(grant)
	if len(q.jobs) == 0 {
		q.deficit = 0
	}
	j.state = StateRunning
	j.grant = grant
	j.started = time.Now()
	s.running[j.id] = j
	s.emit(Event{Kind: EventStarted, JobID: j.id, Name: j.name, Grant: grant, InUse: s.inUseLocked(), Queued: s.queuedLocked()})
	if s.log != nil {
		s.log.Debug("sched: job started", "job_id", j.id, "name", j.name,
			"grant", len(grant), "queue_wait", j.started.Sub(j.queuedAt), "alloc", j.allocDur)
	}
	s.wg.Add(1)
	go func(run RunFunc) {
		defer s.wg.Done()
		s.finish(j, runSafe(j.runCtx, grant, run))
	}(j.run)
}

// runSafe invokes run, converting a panic into an error so one bad job
// cannot take down the scheduler.
func runSafe(ctx context.Context, grant []int, run RunFunc) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sched: job panicked: %v", r)
		}
	}()
	return run(ctx, grant)
}

func (s *Scheduler) finish(j *Job, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range j.grant {
		s.free[id] = true
	}
	delete(s.running, j.id)
	j.run = nil
	j.state = StateDone
	j.finished = time.Now()
	if err == nil {
		err = j.runCtx.Err()
	}
	j.err = err
	s.finished++
	j.cancel()
	close(j.done)
	s.emit(Event{Kind: EventFinished, JobID: j.id, Name: j.name, Grant: j.grant, InUse: s.inUseLocked(), Queued: s.queuedLocked()})
	if s.log != nil {
		s.log.Debug("sched: job finished", "job_id", j.id, "name", j.name,
			"wall", j.finished.Sub(j.started), "err", err)
	}
	s.dispatchLocked()
}

// removeQueuedLocked cancels a still-queued job.
func (s *Scheduler) removeQueuedLocked(j *Job, cause error) {
	q := &s.classes[j.prio]
	for i, qj := range q.jobs {
		if qj == j {
			q.jobs = append(q.jobs[:i], q.jobs[i+1:]...)
			break
		}
	}
	if len(q.jobs) == 0 {
		q.deficit = 0
	}
	j.run = nil
	j.state = StateCanceled
	j.finished = time.Now()
	if cause == nil {
		cause = context.Canceled
	}
	j.err = cause
	s.canceled++
	j.cancel()
	close(j.done)
	s.emit(Event{Kind: EventCanceled, JobID: j.id, Name: j.name, InUse: s.inUseLocked(), Queued: s.queuedLocked()})
	if s.log != nil {
		s.log.Debug("sched: job canceled", "job_id", j.id, "name", j.name, "cause", cause)
	}
}

// allocateLocked carves want CPUs from the free set, preferring to drain
// the locality group with the most free CPUs first (densest placement)
// and taking CPUs in compact order within each group, so a grant spans
// as few NUMA nodes as possible and RAMR's compact pinning inside the
// grant keeps mapper/combiner pairs cache-adjacent.
func (s *Scheduler) allocateLocked(want int) []int {
	byGroup := make(map[int][]int)
	var groupIDs []int
	for id := range s.free {
		g, ok := s.machine.GroupOf(id)
		if !ok {
			g = 0
		}
		if byGroup[g] == nil {
			groupIDs = append(groupIDs, g)
		}
		byGroup[g] = append(byGroup[g], id)
	}
	for _, ids := range byGroup {
		sort.Slice(ids, func(a, b int) bool { return s.rank[ids[a]] < s.rank[ids[b]] })
	}
	// Most-free group first; lowest group index on ties for determinism.
	sort.Slice(groupIDs, func(a, b int) bool {
		ga, gb := groupIDs[a], groupIDs[b]
		if len(byGroup[ga]) != len(byGroup[gb]) {
			return len(byGroup[ga]) > len(byGroup[gb])
		}
		return ga < gb
	})
	grant := make([]int, 0, want)
	for _, g := range groupIDs {
		for _, id := range byGroup[g] {
			if len(grant) == want {
				break
			}
			grant = append(grant, id)
			delete(s.free, id)
		}
		if len(grant) == want {
			break
		}
	}
	return grant
}

// --- Job methods ---

// ID returns the scheduler-assigned job id.
func (j *Job) ID() int { return j.id }

// Wait blocks until the job reaches a terminal state or ctx expires. It
// returns the job's terminal error (nil on success) or ctx.Err() when
// the wait — not the job — timed out.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
	case <-ctx.Done():
		return ctx.Err()
	}
	j.s.mu.Lock()
	defer j.s.mu.Unlock()
	return j.err
}

// Cancel stops the job: a queued job is removed without running, a
// running job's context fires and the engine drains. Safe to call in any
// state, any number of times. Cancel is unconditional — it does not
// consult the waiter count; coalescing layers that want last-waiter
// semantics use DropWaiter instead.
func (j *Job) Cancel() {
	s := j.s
	s.mu.Lock()
	if j.state == StateQueued {
		s.removeQueuedLocked(j, context.Canceled)
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	j.cancel()
}

// AddWaiter attaches one more waiter to the job. Duplicate submissions
// coalesced onto a single execution each hold a waiter reference; all of
// them observe the job's completion (including error and cancellation)
// through Wait/Status, and the execution is cancelled only when the last
// reference detaches via DropWaiter. Attaching to an already-terminal
// job is allowed — the new waiter simply observes the settled outcome.
func (j *Job) AddWaiter() {
	j.s.mu.Lock()
	j.waiters++
	j.s.mu.Unlock()
}

// DropWaiter detaches one waiter and reports whether this detach
// cancelled the execution: dropping the last waiter from a live job
// cancels it exactly like Cancel (a queued job never starts, a running
// job's context fires), while earlier drops leave the job running for
// the remaining waiters. Dropping from a terminal job is a no-op.
func (j *Job) DropWaiter() bool {
	s := j.s
	s.mu.Lock()
	if j.waiters > 0 {
		j.waiters--
	}
	if j.waiters > 0 || j.state == StateDone || j.state == StateCanceled {
		s.mu.Unlock()
		return false
	}
	if j.state == StateQueued {
		s.removeQueuedLocked(j, context.Canceled)
		s.mu.Unlock()
		return true
	}
	s.mu.Unlock()
	j.cancel()
	return true
}

// Waiters returns the job's current waiter count.
func (j *Job) Waiters() int {
	j.s.mu.Lock()
	defer j.s.mu.Unlock()
	return j.waiters
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.s.mu.Lock()
	defer j.s.mu.Unlock()
	return JobStatus{
		ID:       j.id,
		Name:     j.name,
		Priority: j.prio,
		State:    j.state,
		Grant:    append([]int(nil), j.grant...),
		QueuedAt: j.queuedAt,
		Started:  j.started,
		Finished: j.finished,
		AllocDur: j.allocDur,
		Err:      j.err,
		Waiters:  j.waiters,
	}
}
