// Streaming sessions over the job API: a submission carrying "stream"
// opens a resident pipeline (internal/stream) under a scheduler grant
// instead of a one-shot batch run. Chunks arrive via POST
// /jobs/{id}/chunks (202, or 429 with Retry-After under backpressure),
// sealed windows are served from GET /jobs/{id}/windows[/{n}], POST
// /jobs/{id}/close seals the final window and settles the job, and
// DELETE /jobs/{id} cancels the resident pipeline, freeing its CPU
// grant. Streaming submissions bypass the memo cache and the in-flight
// coalescer entirely: a session's result is a function of chunks that
// have not arrived at submission time, so no digest can stand for it.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ramr/internal/mr"
	"ramr/internal/obs"
	"ramr/internal/stream"
	"ramr/internal/synth"
	"ramr/internal/workloads"
)

// streamCloseTimeout bounds the drain POST /jobs/{id}/close waits for.
// The handler deliberately does not use the request context: a client
// hanging up mid-close must not cancel the seal of the final windows.
const streamCloseTimeout = 60 * time.Second

// streamMetrics are the service-level ramr_stream_* Prometheus
// families, written by writeServiceProm after the memo block.
type streamMetrics struct {
	chunks       atomic.Uint64
	sealed       atomic.Uint64
	backpressure atomic.Uint64
	late         atomic.Uint64
	open         atomic.Int64
}

// streamState is one streaming session's service-side handle. The
// stream.Session is built inside the scheduler Run closure (its worker
// split depends on the CPU grant), so handlers arriving earlier wait on
// ready — closed by publish, by fail, or by the watch fallback when the
// job settles without ever starting (cancelled while queued).
type streamState struct {
	spec mr.StreamSpec // resolved

	// idReady orders the Run closure after Submit assigned the job id
	// (the closure may fire before sch.Submit returns to the caller).
	idReady chan struct{}
	ready   chan struct{}
	once    sync.Once

	mu       sync.Mutex
	sess     *stream.Session
	startErr error
}

// publish installs the started session and releases waiting handlers.
func (st *streamState) publish(sess *stream.Session) {
	st.mu.Lock()
	st.sess = sess
	st.mu.Unlock()
	st.once.Do(func() { close(st.ready) })
}

// fail records a start failure and releases waiting handlers.
func (st *streamState) fail(err error) {
	st.mu.Lock()
	if st.startErr == nil {
		st.startErr = err
	}
	st.mu.Unlock()
	st.once.Do(func() { close(st.ready) })
}

// session returns the live session, or the reason there is none.
func (st *streamState) session() (*stream.Session, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.sess == nil {
		if st.startErr != nil {
			return nil, st.startErr
		}
		return nil, errors.New("streaming session not started")
	}
	return st.sess, nil
}

// peek returns the session without waiting (nil if not started yet).
func (st *streamState) peek() *stream.Session {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.sess
}

// await blocks until the session started or definitively will not.
func (st *streamState) await(ctx context.Context) (*stream.Session, error) {
	select {
	case <-st.ready:
		return st.session()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// openStreamLocked is Admit's streaming branch: the entry goes through the
// same launch — scheduler admission, live ledger, watcher —
// and retention as a batch job, but skips the memo lookup and the
// in-flight coalescer: identical streaming submissions each get their own
// resident session, and no streaming result is ever inserted into the
// cache (watch guards on e.stream). A session's input arrives as chunks,
// so the resolved plan is all it needs: no batch input is ever
// materialised for it. Callers hold s.mu.
func (s *Service) openStreamLocked(p *Plan, rec *obs.Recorder) (*entry, error) {
	st := &streamState{
		spec:    p.cfg.Stream.Resolved(),
		idReady: make(chan struct{}),
		ready:   make(chan struct{}),
	}
	e := &entry{workload: p.app, engine: p.engine, digest: p.digest, rec: rec, stream: st}
	err := s.launchLocked(e, p, func(ctx context.Context, grant []int) error {
		<-st.idReady
		return s.runStream(ctx, grant, e, p)
	})
	if err != nil {
		return nil, err
	}
	close(st.idReady)
	rec.Instant("stream-session", map[string]any{
		"window": st.spec.Window, "slide": st.spec.Slide,
		"lateness": st.spec.Lateness, "max_pending": st.spec.MaxPending,
	})
	s.ring.Append("stream_open", e.id, map[string]any{
		"window": st.spec.Window, "slide": st.spec.Slide,
	})
	s.jobLog(e).Info("streaming session admitted", "workload", e.workload,
		"window", st.spec.Window, "slide", st.spec.Slide,
		"priority", p.priority.String())
	return e, nil
}

// streamSessions opens a resident session of each workload a stream spec
// may name: Resolve refuses every other, and the capability advertisement
// lists these.
var streamSessions = map[string]func(p *Plan, c mr.Config) (*stream.Session, error){
	"SYNTH": func(p *Plan, c mr.Config) (*stream.Session, error) {
		return synth.NewStreamSession(p.synth, p.seed, c)
	},
	"WC": func(p *Plan, c mr.Config) (*stream.Session, error) {
		return workloads.NewWordCountStreamSession(p.kind, c)
	},
}

// streamApps lists the workloads a stream spec may name, sorted.
func streamApps() []string { return slices.Sorted(maps.Keys(streamSessions)) }

// runStream is the streaming job's Run closure: build the session for
// the granted worker split, start the resident pipeline, then hold the
// grant until the session drains (Close), is cancelled (DELETE or
// scheduler drain), or dies. The workers live here across every window;
// nothing restarts between seals.
func (s *Service) runStream(ctx context.Context, grant []int, e *entry, p *Plan) error {
	st := e.stream
	c := p.grantConfig(grant)
	start := time.Now()
	sess, err := streamSessions[p.app](p, c)
	if err != nil {
		st.fail(err)
		return err
	}
	rec := e.rec
	sess.SetOnSeal(func(w stream.WindowMeta) {
		s.stream.sealed.Add(1)
		rec.SpanAt(fmt.Sprintf("window-%d", w.Index), w.OpenedAt, w.SealedAt, map[string]any{
			"pairs": w.Pairs, "elements": w.Elements, "splits": w.Splits, "chunks": w.Chunks,
		})
		rec.InstantAt("window-sealed", w.SealedAt, map[string]any{
			"window": w.Index, "pairs": w.Pairs, "elements": w.Elements,
		})
		s.ring.Append("window_sealed", e.id, map[string]any{
			"window": w.Index, "pairs": w.Pairs, "elements": w.Elements,
		})
	})
	if err := sess.Start(); err != nil {
		st.fail(err)
		return err
	}
	st.publish(sess)
	s.stream.open.Add(1)
	defer s.stream.open.Add(-1)
	rec.SpanAt("stream-start", start, time.Now(), map[string]any{
		"cpus": append([]int(nil), grant...)})

	select {
	case <-ctx.Done():
		// DELETE /jobs/{id} or scheduler drain: tear the resident
		// pipeline down and free every worker before releasing the
		// grant — the leak check in the tests rides on this wait.
		sess.CancelWait()
	case <-sess.Done():
	}
	err = sess.Err()

	stats := sess.Stats()
	pairs := 0
	for _, w := range sess.Windows() {
		pairs += w.Pairs
	}
	rep := e.telem.EndRun(nil)
	info := &workloads.RunInfo{
		Wall:      time.Since(start),
		Queue:     rep.Totals.Queue,
		Steal:     rep.Totals.Steal,
		Pairs:     pairs,
		Telemetry: rep,
	}
	e.mu.Lock()
	e.info = info
	e.mu.Unlock()
	rec.InstantAt("stream-drained", time.Now(), map[string]any{
		"chunks": stats.Chunks, "windows": stats.Sealed, "elements": stats.Elements,
	})
	if err != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return err
}

// chunkRequest is the POST /jobs/{id}/chunks body. Ts is a pointer so
// an explicit 0 tick and an omitted field (auto-assign) stay distinct.
type chunkRequest struct {
	Ts       *int64   `json:"ts,omitempty"`
	Elements int      `json:"elements,omitempty"`
	Lines    []string `json:"lines,omitempty"`
}

// chunkResponse acknowledges an admitted chunk.
type chunkResponse struct {
	Ts        int64 `json:"ts"`
	Pending   int64 `json:"pending"`
	Watermark int64 `json:"watermark"`
	Sealed    int   `json:"windows_sealed"`
}

// streamEntry resolves {id} to a live streaming entry.
func (s *Service) streamEntry(w http.ResponseWriter, r *http.Request) (*entry, bool) {
	j, ok := lookupJob(s, s.log, w, r)
	if !ok {
		return nil, false
	}
	e := j.(*entry)
	if e.stream == nil {
		writeErr(w, s.jobLog(e), http.StatusConflict,
			fmt.Errorf("job %d is not a streaming session", e.id))
		return nil, false
	}
	return e, true
}

// handleStreamChunk implements POST /jobs/{id}/chunks: 202 on admission
// with the assigned tick, 429 with Retry-After under backpressure
// (derived from the pending backlog), 409
// for late chunks, closed sessions and dead sessions, 400 for malformed
// payloads and for ticks out of range (negative, or with a window ending
// past the largest int64), 413 for a body over maxBodyBytes.
func (s *Service) handleStreamChunk(w http.ResponseWriter, r *http.Request) {
	e, ok := s.streamEntry(w, r)
	if !ok {
		return
	}
	lg := s.jobLog(e)
	var req chunkRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeDecodeErr(w, lg, fmt.Errorf("decoding chunk: %w", err))
		return
	}
	if req.Ts != nil && *req.Ts < 0 {
		writeErr(w, lg, http.StatusBadRequest, fmt.Errorf("chunk tick %d is negative; omit ts to auto-assign one", *req.Ts))
		return
	}
	sess, err := e.stream.await(r.Context())
	if err != nil {
		writeErr(w, lg, http.StatusConflict, fmt.Errorf("streaming session unavailable: %w", err))
		return
	}
	rc := stream.RawChunk{Ts: stream.TsAuto, Elements: req.Elements, Lines: req.Lines}
	if req.Ts != nil {
		rc.Ts = *req.Ts
	}
	ts, err := sess.Append(rc)
	if err == nil {
		s.stream.chunks.Add(1)
		st := sess.Stats()
		writeJSON(w, lg, http.StatusAccepted, chunkResponse{
			Ts: ts, Pending: st.Pending, Watermark: st.Watermark, Sealed: st.Sealed,
		})
		return
	}
	var bp *stream.BackpressureError
	var late *stream.LateChunkError
	switch {
	case errors.As(err, &bp):
		s.stream.backpressure.Add(1)
		s.ring.Append("stream_backpressure", e.id, map[string]any{
			"pending": bp.Pending, "limit": bp.Limit,
		})
		w.Header().Set("Retry-After",
			strconv.Itoa(int(math.Ceil(bp.RetryAfter.Seconds()))))
		writeJSON(w, lg, http.StatusTooManyRequests, map[string]any{
			"error":          bp.Error(),
			"retry_after_ms": bp.RetryAfter.Milliseconds(),
			"pending":        bp.Pending,
			"limit":          bp.Limit,
		})
	case errors.As(err, &late):
		s.stream.late.Add(1)
		writeJSON(w, lg, http.StatusConflict, map[string]any{
			"error":     late.Error(),
			"ts":        late.Ts,
			"watermark": late.Watermark,
		})
	case errors.Is(err, stream.ErrClosed):
		writeErr(w, lg, http.StatusConflict, err)
	default:
		// Decode errors (bad payload for the workload) are the
		// client's fault; session-fatal errors are conflicts.
		if sess.Err() != nil {
			writeErr(w, lg, http.StatusConflict, err)
		} else {
			writeErr(w, lg, http.StatusBadRequest, err)
		}
	}
}

// windowsDoc is the GET /jobs/{id}/windows body.
type windowsDoc struct {
	Spec    streamSpecDoc       `json:"spec"`
	Stats   stream.Stats        `json:"stats"`
	Windows []stream.WindowMeta `json:"windows"`
}

// streamSpecDoc renders the resolved window spec.
type streamSpecDoc struct {
	Window     int64 `json:"window"`
	Slide      int64 `json:"slide"`
	Lateness   int64 `json:"lateness"`
	MaxPending int   `json:"max_pending"`
}

func specDoc(sp mr.StreamSpec) streamSpecDoc {
	return streamSpecDoc{Window: sp.Window, Slide: sp.Slide, Lateness: sp.Lateness, MaxPending: sp.MaxPending}
}

// handleStreamWindows implements GET /jobs/{id}/windows: every sealed
// window's summary in seal order, with the live session stats. 202
// while the session has not started yet.
func (s *Service) handleStreamWindows(w http.ResponseWriter, r *http.Request) {
	e, ok := s.streamEntry(w, r)
	if !ok {
		return
	}
	sess := e.stream.peek()
	if sess == nil {
		writeJSON(w, s.jobLog(e), http.StatusAccepted, map[string]any{
			"state": "starting", "spec": specDoc(e.stream.spec),
		})
		return
	}
	writeJSON(w, s.jobLog(e), http.StatusOK, windowsDoc{
		Spec:    specDoc(e.stream.spec),
		Stats:   sess.Stats(),
		Windows: sess.Windows(),
	})
}

// handleStreamWindow implements GET /jobs/{id}/windows/{n}: 200 with
// the sealed window, 202 while the window may still seal (session
// live), 404 once the session is over without it (empty windows are
// skipped, late indices never existed).
func (s *Service) handleStreamWindow(w http.ResponseWriter, r *http.Request) {
	e, ok := s.streamEntry(w, r)
	if !ok {
		return
	}
	lg := s.jobLog(e)
	n, err := strconv.ParseInt(r.PathValue("n"), 10, 64)
	if err != nil {
		writeErr(w, lg, http.StatusBadRequest, fmt.Errorf("invalid window index %q", r.PathValue("n")))
		return
	}
	sess := e.stream.peek()
	if sess == nil {
		writeJSON(w, lg, http.StatusAccepted, map[string]any{"state": "starting"})
		return
	}
	if wm, ok := sess.Window(n); ok {
		writeJSON(w, lg, http.StatusOK, wm)
		return
	}
	select {
	case <-sess.Done():
		writeErr(w, lg, http.StatusNotFound,
			fmt.Errorf("window %d was not sealed by session %d (empty windows are skipped)", n, e.id))
	default:
		writeJSON(w, lg, http.StatusAccepted, map[string]any{
			"state": "open", "windows_sealed": sess.Stats().Sealed,
		})
	}
}

// handleStreamClose implements POST /jobs/{id}/close: stop admitting
// chunks, drain the resident workers, seal every remaining window
// (the final, watermark-incomplete one included) and settle the job.
// Synchronous: the 200 response carries the final window set.
func (s *Service) handleStreamClose(w http.ResponseWriter, r *http.Request) {
	e, ok := s.streamEntry(w, r)
	if !ok {
		return
	}
	lg := s.jobLog(e)
	sess, err := e.stream.await(r.Context())
	if err != nil {
		writeErr(w, lg, http.StatusConflict, fmt.Errorf("streaming session unavailable: %w", err))
		return
	}
	// Deliberately not the request context: a client disconnect must
	// not abort the final seal.
	ctx, cancel := context.WithTimeout(context.Background(), streamCloseTimeout)
	defer cancel()
	lg.Info("streaming session close requested")
	if err := sess.Close(ctx); err != nil {
		writeErr(w, lg, http.StatusConflict, fmt.Errorf("closing session: %w", err))
		return
	}
	writeJSON(w, lg, http.StatusOK, windowsDoc{
		Spec:    specDoc(e.stream.spec),
		Stats:   sess.Stats(),
		Windows: sess.Windows(),
	})
}

// streamStatusDoc is the "stream" section of a streaming job's status.
type streamStatusDoc struct {
	Spec streamSpecDoc `json:"spec"`
	// Started is false until the scheduler granted CPUs and the
	// resident workers spawned.
	Started bool          `json:"started"`
	Stats   *stream.Stats `json:"stats,omitempty"`
}

// streamStatus renders e's stream section (nil for batch jobs).
func (e *entry) streamStatus() *streamStatusDoc {
	if e.stream == nil {
		return nil
	}
	doc := &streamStatusDoc{Spec: specDoc(e.stream.spec)}
	if sess := e.stream.peek(); sess != nil {
		doc.Started = true
		st := sess.Stats()
		doc.Stats = &st
	}
	return doc
}

// writeStreamProm appends the ramr_stream_* families: service-total
// counters plus the watermark lag, the largest over the live sessions read
// at scrape time (each session's own is in its status document).
func (s *Service) writeStreamProm(w io.Writer) error {
	var lag time.Duration
	s.mu.Lock()
	for e := range s.live {
		if e.stream == nil {
			continue
		}
		if sess := e.stream.peek(); sess != nil {
			lag = max(lag, sess.Stats().WatermarkLag)
		}
	}
	s.mu.Unlock()
	_, err := fmt.Fprintf(w, `# HELP ramr_stream_chunks_total Chunks admitted into streaming sessions.
# TYPE ramr_stream_chunks_total counter
ramr_stream_chunks_total %d
# HELP ramr_stream_windows_sealed_total Windows sealed across streaming sessions.
# TYPE ramr_stream_windows_sealed_total counter
ramr_stream_windows_sealed_total %d
# HELP ramr_stream_backpressure_total Chunk submissions rejected with 429 by the pending bound.
# TYPE ramr_stream_backpressure_total counter
ramr_stream_backpressure_total %d
# HELP ramr_stream_late_chunks_total Chunks rejected for arriving behind the watermark.
# TYPE ramr_stream_late_chunks_total counter
ramr_stream_late_chunks_total %d
# HELP ramr_stream_sessions_open Streaming sessions currently holding a grant.
# TYPE ramr_stream_sessions_open gauge
ramr_stream_sessions_open %d
# HELP ramr_stream_watermark_lag_seconds Wall-clock age of the oldest unsealed data, the largest over live streaming sessions.
# TYPE ramr_stream_watermark_lag_seconds gauge
ramr_stream_watermark_lag_seconds %g
`,
		s.stream.chunks.Load(), s.stream.sealed.Load(),
		s.stream.backpressure.Load(), s.stream.late.Load(),
		s.stream.open.Load(), lag.Seconds())
	return err
}
