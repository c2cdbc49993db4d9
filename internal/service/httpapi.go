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
// capabilities block. A cluster coordinator (internal/cluster) sends it on
// every request to a worker, and a worker refuses a POST /jobs naming
// another generation before admitting anything; the coordinator reads
// every answer's generation before its status and fails the job on a
// mismatch. A mixed-version deployment thus fails loudly instead of
// corrupting a merge with a partial whose shape it misreads. Bump it on
// any incompatible change to the shard or partial wire shapes, or to what
// the coordinator relies on a worker to honour.
//
// Generation 2: GET /jobs/{id}/result honours ?wait=<duration>. The
// coordinator waits on it instead of polling on a timer; a generation-1
// worker ignores the parameter and answers 202 at once.
//
// Generation 3: the generators became split-addressable (a shard builds
// only its own splits), which changed the bytes a seed generates; partials
// from both sides of that change would merge into a plausible digest of an
// input no single node ever saw.
//
// Generation 4: a shard's partial became sorted columns — words and
// counts, or keys and values — in place of a JSON object keyed by the
// output keys; a generation-3 partial would decode as an empty one.
const ProtoVersion = "4"

// ProtoHeader is the header carrying ProtoVersion: on every response, and
// on every request a coordinator sends.
const ProtoHeader = "X-RAMR-Proto"

// Capabilities describes what this worker can do, served in the /stats
// "capabilities" section for operators.
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
		StreamApps: streamApps(),
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

// Retention enforces a retention bound over a backend's records: when more
// than bound of them are settled, the oldest-finished (ties broken by id)
// are removed until bound remain. Live records are never touched; a
// negative bound retains everything. It keeps the settled records in a
// binary heap in that order, filled as they settle, so a settle costs a
// sift and no allocation once the heap has grown to the bound, and no sort
// or walk over the registry. Not safe for concurrent use: its backend calls
// it under the lock that guards the records.
type Retention[R Job] struct {
	bound  int
	remove func(R)
	heap   []retained[R]
}

// retained is one settled record in a Retention's heap.
type retained[R Job] struct {
	at time.Time
	id int
	r  R
}

// before is the retention order: finished earlier, or at once with a lower id.
func (a retained[R]) before(b retained[R]) bool {
	if !a.at.Equal(b.at) {
		return a.at.Before(b.at)
	}
	return a.id < b.id
}

// NewRetention returns a retention of bound settled records, each removed
// past it by remove.
func NewRetention[R Job](bound int, remove func(R)) *Retention[R] {
	return &Retention[R]{bound: bound, remove: remove}
}

// Settled records that r, a record of the registry, settled at finished,
// and removes the oldest-finished settled records past the bound.
func (t *Retention[R]) Settled(r R, finished time.Time) {
	if t.bound < 0 {
		return
	}
	t.heap = append(t.heap, retained[R]{at: finished, id: r.ID(), r: r})
	t.up(len(t.heap) - 1)
	for len(t.heap) > t.bound {
		oldest := t.heap[0]
		t.drop(0)
		t.remove(oldest.r)
	}
}

// Forget drops r, a record the backend removed itself (a DELETE), from the
// heap; a record the heap does not hold is ignored.
func (t *Retention[R]) Forget(r R) {
	id := r.ID()
	for i := range t.heap {
		if t.heap[i].id == id {
			t.drop(i)
			return
		}
	}
}

// drop removes heap entry i.
func (t *Retention[R]) drop(i int) {
	last := len(t.heap) - 1
	t.heap[i] = t.heap[last]
	t.heap[last] = retained[R]{} // pins no record
	t.heap = t.heap[:last]
	if i < last {
		t.down(i)
		t.up(i)
	}
}

// up sifts entry i towards the root.
func (t *Retention[R]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.heap[i].before(t.heap[parent]) {
			return
		}
		t.heap[i], t.heap[parent] = t.heap[parent], t.heap[i]
		i = parent
	}
}

// down sifts entry i towards the leaves.
func (t *Retention[R]) down(i int) {
	for {
		least, l := i, 2*i+1
		if l < len(t.heap) && t.heap[l].before(t.heap[least]) {
			least = l
		}
		if r := l + 1; r < len(t.heap) && t.heap[r].before(t.heap[least]) {
			least = r
		}
		if least == i {
			return
		}
		t.heap[i], t.heap[least] = t.heap[least], t.heap[i]
		i = least
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

// maxBodyBytes bounds what a decode reads of a POST /jobs or POST
// /jobs/{id}/chunks body; a longer body gets a 413 (writeDecodeErr). It is
// a fixed ceiling far above any request or chunk the daemons see, not a knob.
const maxBodyBytes = 8 << 20

// writeDecodeErr answers a body that did not decode: 413, naming the bound,
// if it ran past maxBodyBytes, else 400 with err.
func writeDecodeErr(w http.ResponseWriter, lg *slog.Logger, err error) {
	if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
		writeErr(w, lg, http.StatusRequestEntityTooLarge, fmt.Errorf("request body is over the bound of %d bytes", tooBig.Limit))
		return
	}
	writeErr(w, lg, http.StatusBadRequest, err)
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
	// A client naming another generation gets nothing admitted or built; a
	// request naming none (curl, a load generator) is served.
	if p := r.Header.Get(ProtoHeader); p != "" && p != ProtoVersion {
		writeErr(w, a.log, http.StatusBadRequest, fmt.Errorf("request speaks protocol %q, this server speaks %q (upgrade one side so generations match)", p, ProtoVersion))
		return
	}
	// The recorder's epoch is the HTTP receive; the decode rides in the
	// root span's opening "receive" segment.
	rec := obs.New(a.root)
	endReceive := rec.Span("receive", nil)
	req, err := decodeJobRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	endReceive()
	if err != nil {
		writeDecodeErr(w, a.log, err)
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
