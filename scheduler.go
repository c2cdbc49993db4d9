package ramr

import (
	"context"
	"sync"
	"time"

	"ramr/internal/core"
	"ramr/internal/obs"
	"ramr/internal/phoenix"
	"ramr/internal/sched"
)

// Priority is a scheduled job's service class; higher classes receive a
// proportionally larger share of the CPU budget under contention
// (deficit-weighted fair-share, weights 1/2/4) without starving lower
// ones.
type Priority = sched.Priority

// Priority classes, low to high.
const (
	PriorityLow    = sched.PriorityLow
	PriorityNormal = sched.PriorityNormal
	PriorityHigh   = sched.PriorityHigh
)

// SchedulerConfig parameterizes NewScheduler; see sched.Config.
type SchedulerConfig = sched.Config

// SchedulerStats is the scheduler occupancy snapshot.
type SchedulerStats = sched.Stats

// JobState is a scheduled job's lifecycle position.
type JobState = sched.State

// JobStatus is a point-in-time snapshot of a scheduled job.
type JobStatus = sched.JobStatus

// ErrSaturated is returned by Submit when the scheduler's bounded
// admission queue is full; back off and retry.
var ErrSaturated = sched.ErrSaturated

// Scheduler multiplexes one machine's logical-CPU budget across
// concurrent MapReduce jobs: each admitted job runs on a disjoint,
// locality-dense CPU grant, so RAMR's contention-aware pinning stays
// valid with neighbours on the box. Admission is bounded, ordering is
// priority-weighted fair-share, and freed CPUs are reserved for
// longest-waiting starved jobs.
type Scheduler struct {
	s *sched.Scheduler
}

// NewScheduler builds a Scheduler over cfg.Machine (the host when nil).
func NewScheduler(cfg SchedulerConfig) (*Scheduler, error) {
	s, err := sched.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Scheduler{s: s}, nil
}

// Budget returns the number of schedulable logical CPUs.
func (sc *Scheduler) Budget() int { return sc.s.Budget() }

// Stats snapshots occupancy and lifetime counters.
func (sc *Scheduler) Stats() SchedulerStats { return sc.s.Stats() }

// Drain stops admission, lets queued and running jobs finish, and
// cancels stragglers when ctx expires (still awaiting their goroutines).
func (sc *Scheduler) Drain(ctx context.Context) error { return sc.s.Drain(ctx) }

// SubmitOptions shapes one Submit call.
type SubmitOptions struct {
	// Name labels the job in events and status; defaults to Spec.Name.
	Name string
	// Priority is the service class; the zero value is PriorityLow.
	Priority Priority
	// MinCPUs/MaxCPUs bound the CPU grant: the job never starts with
	// fewer than MinCPUs (0 means 1) and never receives more than
	// MaxCPUs (0 means the whole budget).
	MinCPUs int
	MaxCPUs int
	// Phoenix runs the job on the fused Phoenix++ baseline engine
	// instead of RAMR. The grant still bounds the worker count.
	Phoenix bool
}

// JobHandle tracks one submitted job and carries its typed result.
type JobHandle[K comparable, R any] struct {
	job *sched.Job
	rec *obs.Recorder

	mu       sync.Mutex
	res      *Result[K, R]
	finished sync.Once
}

// Submit admits spec for execution under sc's budget. The engine config
// is derived from cfg with the CPU grant overlaid at dispatch time:
// worker counts follow the grant size and cfg.Ratio, pinning is laid out
// over exactly the granted CPUs, and the elastic combiner pool (when
// cfg.Tuner is set) treats the grant as a hard ceiling. Submit fails
// fast with ErrSaturated when the admission queue is full.
//
// Submit is a free function because Go methods cannot introduce type
// parameters.
func Submit[S any, K comparable, V, R any](sc *Scheduler, spec *Spec[S, K, V, R], cfg Config, opts SubmitOptions) (*JobHandle[K, R], error) {
	name := opts.Name
	if name == "" {
		name = spec.Name
	}
	h := &JobHandle[K, R]{rec: obs.New(name)}
	c := cfg
	c.Machine = sc.s.Machine()
	job, err := sc.s.Submit(sched.JobSpec{
		Name:     name,
		Priority: opts.Priority,
		MinCPUs:  opts.MinCPUs,
		MaxCPUs:  opts.MaxCPUs,
		Run: func(ctx context.Context, grant []int) error {
			rc := c
			rc.ApplyGrant(grant)
			// The run's worker lanes land under the handle's lifecycle
			// lane, unless the caller asked for them on a trace of their own.
			if rc.Trace == nil {
				rc.Trace = h.rec
			}
			execStart := time.Now()
			var (
				res *Result[K, R]
				err error
			)
			if opts.Phoenix {
				res, err = phoenix.RunContext(ctx, spec, rc)
			} else {
				res, err = core.RunContext(ctx, spec, rc)
			}
			h.rec.SpanAt("execute", execStart, time.Now(),
				map[string]any{"cpus": append([]int(nil), grant...)})
			h.mu.Lock()
			h.res = res
			h.mu.Unlock()
			return err
		},
	})
	if err != nil {
		return nil, err
	}
	h.job = job
	h.rec.SetJob(job.ID(), name)
	return h, nil
}

// ID returns the scheduler-assigned job id.
func (h *JobHandle[K, R]) ID() int { return h.job.ID() }

// Wait blocks until the job finishes (or ctx expires) and returns its
// typed result. A ctx expiry returns ctx.Err() without cancelling the
// job; use Cancel for that.
func (h *JobHandle[K, R]) Wait(ctx context.Context) (*Result[K, R], error) {
	if err := h.job.Wait(ctx); err != nil {
		return nil, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.res, nil
}

// Status snapshots the job's scheduler-side state, including its CPU
// grant once running.
func (h *JobHandle[K, R]) Status() JobStatus { return h.job.Status() }

// Cancel stops the job: queued jobs never start, running jobs drain and
// return a cancellation error. Cancel is unconditional — it does not
// consult the waiter count; callers sharing a handle across clients
// should pair AddWaiter with DropWaiter instead.
func (h *JobHandle[K, R]) Cancel() { h.job.Cancel() }

// AddWaiter registers one more interested party on the job, for callers
// that fan a single execution out to several clients (the job service's
// admission dedup does this for coalesced submissions). Each AddWaiter
// must be balanced by a DropWaiter or Cancel.
func (h *JobHandle[K, R]) AddWaiter() { h.job.AddWaiter() }

// DropWaiter detaches one waiter and cancels the job only when the last
// waiter leaves while the job is still queued or running. It reports
// whether this call actually cancelled the job.
func (h *JobHandle[K, R]) DropWaiter() bool { return h.job.DropWaiter() }

// Waiters returns the current waiter count (1 right after Submit).
func (h *JobHandle[K, R]) Waiters() int { return h.job.Waiters() }

// Trace returns the job's lifecycle trace. Once the job is terminal the
// scheduler-side spans (queue wait, grant allocation with the CPU set as
// span args) are finalized from the settled status and the root span
// closes; called earlier, it serves whatever has been recorded so far.
// Render with JobTrace.WriteChromeTrace and load at ui.perfetto.dev —
// the lifecycle lane sits above the run's worker lanes.
func (h *JobHandle[K, R]) Trace() *JobTrace {
	st := h.job.Status()
	if st.State == sched.StateDone || st.State == sched.StateCanceled {
		h.finished.Do(func() {
			st.TraceTo(h.rec, nil)
			status := "done"
			switch {
			case st.State == sched.StateCanceled:
				status = "canceled"
			case st.Err != nil:
				status = "error"
			}
			h.rec.Finish(status)
		})
	}
	return h.rec
}
