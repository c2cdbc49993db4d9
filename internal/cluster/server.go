package cluster

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"ramr/internal/obs"
	"ramr/internal/sched"
	"ramr/internal/service"
)

// retainJobs bounds the finished cluster-job records the server keeps.
const retainJobs = 128

// Server is the coordinator's backend of the job front end
// (service.API): clients point at the coordinator without changing —
// submit returns 201 with a job id, status and results poll the same
// paths, DELETE cancels. The difference is under the hood — the job runs
// as shards across the cluster — and in the documents this backend
// renders: the result carries the merged digest plus the per-shard
// dispatch history, /stats the worker set, /metrics the ramr_cluster_*
// families.
type Server struct {
	co    *Coordinator
	log   *slog.Logger
	start time.Time

	mu        sync.Mutex
	jobs      map[int]*clusterJob
	retention *service.Retention[*clusterJob] // the settled jobs, past retainJobs removed oldest-first
	nextID    int
	closed    bool
}

// clusterJob is one dispatched job's record. state, finished, res and err
// are written once by the dispatch goroutine before it settles the record
// and read only by those who saw it settled.
type clusterJob struct {
	service.Settlement
	id       int
	workload string
	shards   int
	queuedAt time.Time
	rec      *obs.Recorder
	cancel   context.CancelFunc

	state    string // done | error | canceled
	finished time.Time
	res      *Result
	err      error
}

// NewServer builds the coordinator's job-API backend.
func NewServer(co *Coordinator, logger *slog.Logger) *Server {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	s := &Server{
		co:    co,
		log:   logger,
		start: time.Now(),
		jobs:  make(map[int]*clusterJob),
	}
	s.retention = service.NewRetention(retainJobs, func(j *clusterJob) { delete(s.jobs, j.id) })
	return s
}

// Handler returns the coordinator API: the shared job front end over this
// backend.
func (s *Server) Handler() http.Handler { return service.NewAPI(s, "cluster-job", s.log) }

// Shutdown stops admission and waits for running dispatches (cancelled
// at ctx's deadline).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.log.Info("coordinator draining")
	for _, j := range s.Jobs() {
		select {
		case <-j.Settled():
		case <-ctx.Done():
			j.(*clusterJob).cancel()
			<-j.Settled()
		}
	}
	return ctx.Err()
}

// jobDoc is a cluster job's status/result document.
type jobDoc struct {
	ID       int    `json:"id"`
	Workload string `json:"workload"`
	State    string `json:"state"`
	Shards   int    `json:"shards"`
	QueuedAt string `json:"queued_at,omitempty"`
	Finished string `json:"finished,omitempty"`
	Error    string `json:"error,omitempty"`
	// Result fields, present once done.
	Digest   string        `json:"digest,omitempty"`
	Pairs    int           `json:"pairs,omitempty"`
	WallMS   float64       `json:"wall_ms,omitempty"`
	MergeMS  float64       `json:"merge_ms,omitempty"`
	PerShard []ShardResult `json:"per_shard,omitempty"`
}

// The Job half of the front end's contract. An unsettled job reads
// running, whatever its dispatch goroutine has stored so far.
func (j *clusterJob) ID() int              { return j.id }
func (j *clusterJob) Trace() *obs.Recorder { return j.rec }

func (j *clusterJob) Doc(detail bool) any {
	d := jobDoc{
		ID:       j.id,
		Workload: j.workload,
		State:    "running",
		Shards:   j.shards,
		QueuedAt: j.queuedAt.UTC().Format(time.RFC3339Nano),
	}
	if !j.IsSettled() {
		return d
	}
	d.State = j.state
	d.Finished = j.finished.UTC().Format(time.RFC3339Nano)
	if j.err != nil {
		d.Error = j.err.Error()
	}
	if res := j.res; res != nil {
		d.Digest = res.Digest
		d.Pairs = res.Pairs
		d.WallMS = res.WallMS
		d.MergeMS = res.MergeMS
		if detail {
			d.PerShard = res.PerShard
		}
	}
	return d
}

// Admit implements service.Backend: validate, register, dispatch.
func (s *Server) Admit(req *service.JobRequest, rec *obs.Recorder) (service.Job, bool, error) {
	if err := validateRequest(req); err != nil {
		return nil, false, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		return nil, false, fmt.Errorf("coordinator: %w", sched.ErrDraining)
	}
	s.nextID++
	j := &clusterJob{
		Settlement: service.NewSettlement(),
		id:         s.nextID,
		workload:   strings.ToUpper(strings.TrimSpace(req.Workload)),
		shards:     s.co.cfg.Shards,
		queuedAt:   time.Now(),
		rec:        rec,
		cancel:     cancel,
	}
	s.jobs[j.id] = j
	s.mu.Unlock()
	rec.SetJob(j.id, j.workload)
	s.log.Info("cluster job admitted", "job_id", j.id, "workload", j.workload)
	go s.dispatch(ctx, j, req)
	return j, false, nil
}

// dispatch runs j across the cluster and settles it: outcome stored and
// trace closed first, terminal after, and in the same critical section as
// the retention bound, past which the oldest-finished jobs go.
func (s *Server) dispatch(ctx context.Context, j *clusterJob, req *service.JobRequest) {
	defer j.cancel()
	res, err := s.co.Run(ctx, req, j.rec)
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state, j.res = "done", res
		s.log.Info("cluster job done", "job_id", j.id, "digest", res.Digest,
			"pairs", res.Pairs, "wall_ms", res.WallMS)
	case ctx.Err() != nil:
		j.state, j.err = "canceled", ctx.Err()
	default:
		j.state, j.err = "error", err
	}
	if j.err != nil {
		s.log.Warn("cluster job failed", "job_id", j.id, "state", j.state, "err", j.err)
	}
	j.rec.Finish(j.state)
	s.mu.Lock()
	defer s.mu.Unlock()
	j.Settle()
	if s.jobs[j.id] == j {
		s.retention.Settled(j, j.finished)
	}
}

func (s *Server) Job(id int) (service.Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return j, true
	}
	return nil, false
}

func (s *Server) Jobs() []service.Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]service.Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	return out
}

// Cancel implements service.Backend: a running dispatch is cancelled, a
// settled job's record is deleted.
func (s *Server) Cancel(job service.Job) (state string, wasLive bool) {
	j := job.(*clusterJob)
	if !j.IsSettled() {
		j.cancel()
		return "", true
	}
	s.mu.Lock()
	s.retention.Forget(j)
	delete(s.jobs, j.id)
	s.mu.Unlock()
	return j.state, false
}

// Stats implements service.Backend: the worker set with health, job
// counts and the protocol generation.
func (s *Server) Stats() any {
	s.mu.Lock()
	total := len(s.jobs)
	running := 0
	for _, j := range s.jobs {
		if !j.IsSettled() {
			running++
		}
	}
	s.mu.Unlock()
	return map[string]any{
		"role":    "coordinator",
		"proto":   service.ProtoVersion,
		"shards":  s.co.cfg.Shards,
		"workers": s.co.Workers(),
		"jobs": map[string]int{
			"retained": total,
			"running":  running,
		},
		"uptime_seconds": time.Since(s.start).Seconds(),
	}
}

func (s *Server) WriteMetrics(w io.Writer) error { return s.co.WritePrometheus(w) }

func (s *Server) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed
}
