package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ramr/internal/obs"
	"ramr/internal/service"
)

// retainJobs bounds the finished cluster-job records the server keeps.
const retainJobs = 128

// Server fronts a Coordinator with the same POST /jobs surface a single
// ramrd serves, so clients point at the coordinator without changing:
// submit returns 201 with a job id, status and results poll the same
// paths, DELETE cancels. The difference is under the hood — the job runs
// as shards across the cluster — and in the result document, which
// carries the merged digest plus the per-shard dispatch history.
type Server struct {
	co    *Coordinator
	log   *slog.Logger
	start time.Time

	mu     sync.Mutex
	jobs   map[int]*clusterJob
	nextID int
	closed bool
}

// clusterJob is one dispatched job's record.
type clusterJob struct {
	id       int
	workload string
	queuedAt time.Time
	rec      *obs.Recorder
	cancel   context.CancelFunc
	done     chan struct{}

	mu       sync.Mutex
	state    string // running | done | error | canceled
	finished time.Time
	res      *Result
	err      error
}

func (j *clusterJob) snapshot() (state string, finished time.Time, res *Result, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.finished, j.res, j.err
}

// NewServer builds the HTTP front end over a Coordinator.
func NewServer(co *Coordinator, logger *slog.Logger) *Server {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	return &Server{
		co:    co,
		log:   logger,
		start: time.Now(),
		jobs:  make(map[int]*clusterJob),
	}
}

// Handler returns the coordinator API:
//
//	POST   /jobs             submit; dispatched as shards across the cluster
//	GET    /jobs             list retained cluster jobs
//	GET    /jobs/{id}        status
//	GET    /jobs/{id}/result merged result incl. per-shard dispatch records;
//	                         ?wait=5s blocks until the dispatch settles
//	GET    /jobs/{id}/trace  probe/dispatch/merge spans as Chrome-trace JSON
//	DELETE /jobs/{id}        cancel a running dispatch
//	GET    /stats            worker set with health, job counts, capabilities
//	GET    /metrics          ramr_cluster_* Prometheus families
//	GET    /healthz          liveness
//	GET    /readyz           readiness (503 while draining)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	return s.withProto(mux)
}

// withProto stamps the same protocol header the workers serve: the
// coordinator speaks the surface it dispatches to.
func (s *Server) withProto(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(service.ProtoHeader, service.ProtoVersion)
		next.ServeHTTP(w, r)
	})
}

// Shutdown stops admission and waits for running dispatches (cancelled
// at ctx's deadline).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	var running []*clusterJob
	for _, j := range s.jobs {
		if st, _, _, _ := j.snapshot(); st == "running" {
			running = append(running, j)
		}
	}
	s.mu.Unlock()
	s.log.Info("coordinator draining", "running", len(running))
	for _, j := range running {
		select {
		case <-j.done:
		case <-ctx.Done():
			j.cancel()
			<-j.done
		}
	}
	return ctx.Err()
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.log.Error("cluster: encoding response", "type", fmt.Sprintf("%T", v), "err", err)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		io.WriteString(w, `{"error":"internal: response encoding failed"}`+"\n")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	buf.WriteTo(w)
}

func (s *Server) writeErr(w http.ResponseWriter, code int, err error) {
	s.writeJSON(w, code, map[string]string{"error": err.Error()})
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

func (s *Server) doc(j *clusterJob, detail bool) jobDoc {
	state, finished, res, err := j.snapshot()
	d := jobDoc{
		ID:       j.id,
		Workload: j.workload,
		State:    state,
		Shards:   s.co.cfg.Shards,
		QueuedAt: j.queuedAt.UTC().Format(time.RFC3339Nano),
	}
	if !finished.IsZero() {
		d.Finished = finished.UTC().Format(time.RFC3339Nano)
	}
	if err != nil {
		d.Error = err.Error()
	}
	if res != nil {
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

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	rec := obs.New("cluster-job")
	var req service.JobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if err := validateRequest(&req); err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		s.writeErr(w, http.StatusServiceUnavailable, fmt.Errorf("coordinator draining"))
		return
	}
	s.nextID++
	j := &clusterJob{
		id:       s.nextID,
		workload: strings.ToUpper(strings.TrimSpace(req.Workload)),
		queuedAt: time.Now(),
		state:    "running",
		rec:      rec,
		cancel:   cancel,
		done:     make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.retireLocked()
	s.mu.Unlock()
	rec.SetJob(j.id, j.workload)
	s.log.Info("cluster job admitted", "job_id", j.id, "workload", j.workload)

	go func() {
		defer close(j.done)
		defer cancel()
		res, err := s.co.Run(ctx, &req, rec)
		j.mu.Lock()
		j.finished = time.Now()
		switch {
		case err == nil:
			j.state, j.res = "done", res
		case ctx.Err() != nil:
			j.state, j.err = "canceled", ctx.Err()
		default:
			j.state, j.err = "error", err
		}
		state, jerr := j.state, j.err
		j.mu.Unlock()
		rec.Finish(state)
		if jerr != nil {
			s.log.Warn("cluster job failed", "job_id", j.id, "state", state, "err", jerr)
		} else {
			s.log.Info("cluster job done", "job_id", j.id, "digest", res.Digest,
				"pairs", res.Pairs, "wall_ms", res.WallMS)
		}
	}()

	w.Header().Set("Location", "/jobs/"+strconv.Itoa(j.id))
	s.writeJSON(w, http.StatusCreated, s.doc(j, false))
}

// retireLocked drops the oldest finished records past the retention
// bound; callers hold s.mu.
func (s *Server) retireLocked() {
	type fin struct {
		j  *clusterJob
		at time.Time
	}
	var done []fin
	for _, j := range s.jobs {
		if st, at, _, _ := j.snapshot(); st != "running" {
			done = append(done, fin{j, at})
		}
	}
	if len(done) <= retainJobs {
		return
	}
	sort.Slice(done, func(i, k int) bool { return done[i].at.Before(done[k].at) })
	for _, f := range done[:len(done)-retainJobs] {
		delete(s.jobs, f.j.id)
	}
}

func (s *Server) lookup(r *http.Request) (*clusterJob, error) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		return nil, fmt.Errorf("invalid job id %q", r.PathValue("id"))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("no cluster job %d", id)
	}
	return j, nil
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]jobDoc, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, s.doc(j, false))
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	s.writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, err := s.lookup(r)
	if err != nil {
		s.writeErr(w, http.StatusNotFound, err)
		return
	}
	s.writeJSON(w, http.StatusOK, s.doc(j, false))
}

// handleResult serves the merged result; ?wait=<duration> blocks on the
// dispatch's completion (202 when the wait lapses or the client goes
// away), exactly like a worker's result endpoint.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, err := s.lookup(r)
	if err != nil {
		s.writeErr(w, http.StatusNotFound, err)
		return
	}
	wait, err := service.ParseResultWait(r)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	if wait > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), wait)
		select {
		case <-j.done:
		case <-ctx.Done():
		}
		cancel()
	}
	if state, _, _, _ := j.snapshot(); state == "running" {
		s.writeJSON(w, http.StatusAccepted, s.doc(j, false))
		return
	}
	s.writeJSON(w, http.StatusOK, s.doc(j, true))
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, err := s.lookup(r)
	if err != nil {
		s.writeErr(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := j.rec.WriteChromeTrace(w); err != nil {
		s.log.Warn("cluster: writing trace", "job_id", j.id, "err", err)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.lookup(r)
	if err != nil {
		s.writeErr(w, http.StatusNotFound, err)
		return
	}
	if state, _, _, _ := j.snapshot(); state != "running" {
		s.mu.Lock()
		delete(s.jobs, j.id)
		s.mu.Unlock()
		s.writeJSON(w, http.StatusConflict, map[string]string{
			"error": fmt.Sprintf("cluster job %d already %s; retained record deleted", j.id, state),
			"state": state,
		})
		return
	}
	j.cancel()
	s.log.Info("cluster job cancel requested", "job_id", j.id)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	total := len(s.jobs)
	running := 0
	for _, j := range s.jobs {
		if st, _, _, _ := j.snapshot(); st == "running" {
			running++
		}
	}
	s.mu.Unlock()
	s.writeJSON(w, http.StatusOK, map[string]any{
		"role":    "coordinator",
		"proto":   service.ProtoVersion,
		"shards":  s.co.cfg.Shards,
		"workers": s.co.Workers(),
		"jobs": map[string]int{
			"retained": total,
			"running":  running,
		},
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.co.WritePrometheus(w); err != nil {
		s.log.Warn("cluster: writing metrics", "err", err)
	}
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n"))
}
