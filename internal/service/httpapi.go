package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"time"

	"ramr/internal/obs"
	"ramr/internal/sched"
	"ramr/internal/workloads"
)

// ProtoVersion is the wire-protocol generation of the job API, served on
// every response as the X-RAMR-Proto header and inside the /stats
// capabilities block. A cluster coordinator (internal/cluster) probes it
// before dispatching shards and refuses workers whose generation
// differs, so a mixed-version deployment fails loudly at admission
// instead of corrupting a merge with a partial whose shape it
// misreads. Bump it on any incompatible change to the shard or partial
// wire shapes, or to what the coordinator relies on a worker to honour.
//
// Generation 2: GET /jobs/{id}/result honours ?wait=<duration>. The
// coordinator waits on it instead of polling on a timer, so a
// generation-1 worker — which ignores the parameter and answers 202 at
// once — is refused at the probe.
//
// Generation 3: the generators became split-addressable (a shard builds
// only its own splits), which changed the bytes a seed generates; partials
// from both sides of that change would merge into a plausible digest of an
// input no single node ever saw.
const ProtoVersion = "3"

// ProtoHeader is the response header carrying ProtoVersion.
const ProtoHeader = "X-RAMR-Proto"

// Capabilities describes what this worker can do, served in the /stats
// "capabilities" section. The coordinator reads it (with the header)
// during its compatibility probe.
type Capabilities struct {
	// Proto is ProtoVersion.
	Proto string `json:"proto"`
	// Features names the optional protocol surfaces this build speaks.
	Features []string `json:"features"`
	// ShardApps lists the workloads accepting a shard spec.
	ShardApps []string `json:"shard_apps"`
	// StreamApps lists the workloads accepting a stream spec.
	StreamApps []string `json:"stream_apps"`
}

// capabilitiesDoc builds the worker's capability advertisement.
func capabilitiesDoc() Capabilities {
	return Capabilities{
		Proto:      ProtoVersion,
		Features:   []string{"jobs", "memo", "partial", "result-wait", "shard", "stream"},
		ShardApps:  workloads.ShardableApps(),
		StreamApps: []string{"SYNTH", "WC"},
	}
}

// Backend is the daemon behind the job API. The front end (API) owns the
// routes, the request decode, the JSON envelope and the error→status
// table; a backend owns its job records and what running one means: the
// scheduler-backed worker (Service) or the coordinator (cluster.Server).
type Backend interface {
	// Admit takes one decoded submission. cached reports a job answered
	// without starting an execution, born settled. An error wrapping
	// sched.ErrSaturated is a 429, sched.ErrDraining a 503, any other 400.
	Admit(req *JobRequest, rec *obs.Recorder) (j Job, cached bool, err error)
	Job(id int) (Job, bool)
	Jobs() []Job
	// Cancel acts on DELETE: a live job is cancelled or, if a coalesced
	// duplicate, detached (wasLive); a settled job's record is deleted and
	// state names its terminal state.
	Cancel(j Job) (state string, wasLive bool)
	// Stats is the /stats document.
	Stats() any
	WriteMetrics(w io.Writer) error
	// Ready is false once the backend stopped admitting (draining).
	Ready() bool
}

// Job is one job record as the front end sees it.
type Job interface {
	ID() int
	// Doc renders the status document, with the full result when detail
	// is set.
	Doc(detail bool) any
	// Settled is closed once everything derived from the run is published;
	// only then does the job read terminal to any client.
	Settled() <-chan struct{}
	Trace() *obs.Recorder
}

// Settlement is the publish-then-terminal latch a job record embeds: the
// backend stores everything derived from the run — result, memo entry,
// trace, metrics — and only then calls Settle. What was written before
// Settle needs no further locking by readers who saw the latch closed.
type Settlement struct{ ch chan struct{} }

// NewSettlement returns an open latch.
func NewSettlement() Settlement { return Settlement{ch: make(chan struct{})} }

// Settle closes the latch; call it exactly once.
func (s Settlement) Settle() { close(s.ch) }

// Settled is closed by Settle.
func (s Settlement) Settled() <-chan struct{} { return s.ch }

// IsSettled reports whether Settle has been called.
func (s Settlement) IsSettled() bool { return closed(s.ch) }

// closed reports, without blocking, whether a settlement latch has closed.
func closed(latch <-chan struct{}) bool {
	select {
	case <-latch:
		return true
	default:
		return false
	}
}

// Retire enforces a retention bound over a backend's records: when more
// than bound of them are settled, remove is called on the oldest-finished
// (ties broken by id) until bound remain. Live records are never touched;
// a negative bound retains everything.
func Retire[R Job](records map[int]R, bound int, finishedAt func(R) time.Time, remove func(R)) {
	if bound < 0 {
		return
	}
	type settled struct {
		r  R
		at time.Time
	}
	var done []settled
	for _, r := range records {
		if closed(r.Settled()) {
			done = append(done, settled{r, finishedAt(r)})
		}
	}
	if len(done) <= bound {
		return
	}
	sort.Slice(done, func(i, j int) bool {
		if !done[i].at.Equal(done[j].at) {
			return done[i].at.Before(done[j].at)
		}
		return done[i].r.ID() < done[j].r.ID()
	})
	for _, d := range done[:len(done)-bound] {
		remove(d.r)
	}
}

// API is the job front end over one Backend:
//
//	POST   /jobs             submit (429 when saturated, 503 when draining;
//	                         200 with the result when answered from a cache)
//	GET    /jobs             list all retained jobs
//	GET    /jobs/{id}        status
//	GET    /jobs/{id}/result full result; 202 with the status while live;
//	                         ?wait=5s blocks until the job settles
//	GET    /jobs/{id}/trace  lifecycle Chrome-trace JSON
//	DELETE /jobs/{id}        cancel a live job (204); a settled job's
//	                         record is deleted and 409 names its state
//	GET    /stats            the backend's statistics document
//	GET    /metrics          the backend's Prometheus exposition
//	GET    /healthz          liveness
//	GET    /readyz           readiness (503 while draining)
//
// Every response carries the protocol header.
type API struct {
	b    Backend
	root string
	log  *slog.Logger
	mux  *http.ServeMux
}

// NewAPI builds the front end. root names the root span of the lifecycle
// traces it opens for b's jobs; lg must not be nil.
func NewAPI(b Backend, root string, lg *slog.Logger) *API {
	a := &API{b: b, root: root, log: lg, mux: http.NewServeMux()}
	a.mux.HandleFunc("POST /jobs", a.submit)
	a.mux.HandleFunc("GET /jobs", a.list)
	a.mux.HandleFunc("GET /jobs/{id}", a.status)
	a.mux.HandleFunc("GET /jobs/{id}/result", a.result)
	a.mux.HandleFunc("GET /jobs/{id}/trace", a.trace)
	a.mux.HandleFunc("DELETE /jobs/{id}", a.cancel)
	a.mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, a.log, http.StatusOK, a.b.Stats())
	})
	a.mux.HandleFunc("GET /metrics", a.metrics)
	a.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	// 503 from the moment the backend starts draining, so load balancers
	// stop routing before the listener closes; liveness stays 200.
	a.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !a.b.Ready() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ok\n")
	})
	return a
}

func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(ProtoHeader, ProtoVersion)
	a.mux.ServeHTTP(w, r)
}

// writeJSON encodes v fully before touching the ResponseWriter: a
// marshal failure becomes a logged 500 instead of a silently truncated
// body half-written after a success header. lg carries the caller's
// correlation attributes so the error lines stay attributable.
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

// decodeJobRequest is the one decode of a POST /jobs body.
func decodeJobRequest(r io.Reader) (*JobRequest, error) {
	var req JobRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("decoding request: %w", err)
	}
	return &req, nil
}

func (a *API) submit(w http.ResponseWriter, r *http.Request) {
	// The recorder's epoch is the HTTP receive; the decode rides in the
	// root span's opening "receive" segment.
	rec := obs.New(a.root)
	endReceive := rec.Span("receive", nil)
	req, err := decodeJobRequest(r.Body)
	endReceive()
	if err != nil {
		writeErr(w, a.log, http.StatusBadRequest, err)
		return
	}
	j, cached, err := a.b.Admit(req, rec)
	switch {
	case err == nil && cached:
		// No execution was started, so 200 with the finished result,
		// not 201 with a Location.
		writeJSON(w, a.jobLog(j), http.StatusOK, j.Doc(true))
	case err == nil:
		w.Header().Set("Location", "/jobs/"+strconv.Itoa(j.ID()))
		writeJSON(w, a.jobLog(j), http.StatusCreated, j.Doc(false))
	case errors.Is(err, sched.ErrSaturated):
		a.log.Warn("job rejected: queue saturated", "workload", req.Workload)
		writeErr(w, a.log, http.StatusTooManyRequests, err)
	case errors.Is(err, sched.ErrDraining):
		writeErr(w, a.log, http.StatusServiceUnavailable, err)
	default:
		writeErr(w, a.log, http.StatusBadRequest, err)
	}
}

func (a *API) jobLog(j Job) *slog.Logger { return a.log.With("job_id", j.ID()) }

// lookupJob resolves the request's {id} against b; when it reports false
// it has already answered 404.
func lookupJob(b Backend, lg *slog.Logger, w http.ResponseWriter, r *http.Request) (Job, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeErr(w, lg, http.StatusNotFound, fmt.Errorf("invalid job id %q", r.PathValue("id")))
		return nil, false
	}
	j, ok := b.Job(id)
	if !ok {
		writeErr(w, lg, http.StatusNotFound, fmt.Errorf("no job %d", id))
	}
	return j, ok
}

func (a *API) list(w http.ResponseWriter, r *http.Request) {
	jobs := a.b.Jobs()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].ID() < jobs[k].ID() })
	docs := make([]any, len(jobs))
	for i, j := range jobs {
		docs[i] = j.Doc(false)
	}
	writeJSON(w, a.log, http.StatusOK, map[string]any{"jobs": docs})
}

func (a *API) status(w http.ResponseWriter, r *http.Request) {
	if j, ok := lookupJob(a.b, a.log, w, r); ok {
		writeJSON(w, a.jobLog(j), http.StatusOK, j.Doc(false))
	}
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

// result answers 200 with the full result once the job settled, 202 with
// the status while it is live. With wait the handler blocks on the
// settlement — not on a timer — and answers 200 the moment it happens,
// or 202 when the wait lapses or the client goes away.
func (a *API) result(w http.ResponseWriter, r *http.Request) {
	j, ok := lookupJob(a.b, a.log, w, r)
	if !ok {
		return
	}
	wait, err := ParseResultWait(r)
	if err != nil {
		writeErr(w, a.jobLog(j), http.StatusBadRequest, err)
		return
	}
	if wait > 0 {
		lapse := time.NewTimer(wait)
		select {
		case <-j.Settled():
		case <-lapse.C:
		case <-r.Context().Done():
		}
		lapse.Stop()
	}
	if closed(j.Settled()) {
		writeJSON(w, a.jobLog(j), http.StatusOK, j.Doc(true))
	} else {
		writeJSON(w, a.jobLog(j), http.StatusAccepted, j.Doc(false))
	}
}

// trace serves the job's lifecycle trace as Chrome trace-event JSON (load
// at ui.perfetto.dev). Live jobs serve the spans recorded so far; a
// settled job's trace is complete.
func (a *API) trace(w http.ResponseWriter, r *http.Request) {
	j, ok := lookupJob(a.b, a.log, w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := j.Trace().WriteChromeTrace(w); err != nil {
		a.jobLog(j).Warn("service: writing trace", "err", err)
	}
}

func (a *API) cancel(w http.ResponseWriter, r *http.Request) {
	j, ok := lookupJob(a.b, a.log, w, r)
	if !ok {
		return
	}
	lg := a.jobLog(j)
	state, wasLive := a.b.Cancel(j)
	if wasLive {
		lg.Info("job cancel requested")
		w.WriteHeader(http.StatusNoContent)
		return
	}
	// Nothing to cancel: 409 names the terminal state so the client can
	// tell a real cancellation from this no-op.
	lg.Info("retained record deleted", "state", state)
	writeJSON(w, lg, http.StatusConflict, map[string]string{
		"error": fmt.Sprintf("job %d already %s; retained record deleted", j.ID(), state),
		"state": state,
	})
}

func (a *API) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := a.b.WriteMetrics(w); err != nil {
		a.log.Warn("service: writing metrics", "err", err)
	}
}
