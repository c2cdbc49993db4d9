package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"ramr/internal/workloads"
)

const (
	streamWindow     = 10   // ticks per tumbling window; ts = chunk index
	streamChunkElems = 2000 // elements per chunk (4 splits of 512)
	streamRate       = 100  // phase A: chunks per second, open loop
	// streamClosedPerSecond sizes phase B: chunks per second of run,
	// sent as fast as the session admits them.
	streamClosedPerSecond = 125
	// streamRetryBudget is how many 429s one chunk may draw before it
	// counts as refused.
	streamRetryBudget = 200
)

// chunkAck is the 202 body of POST /jobs/{id}/chunks; a 429 carries
// RetryAfterMS instead.
type chunkAck struct {
	Pending      int64 `json:"pending"`
	RetryAfterMS int64 `json:"retry_after_ms"`
}

// windowsDoc is the body of GET /jobs/{id}/windows and of POST
// /jobs/{id}/close.
type windowsDoc struct {
	Windows []struct {
		Index    int64     `json:"index"`
		Elements uint64    `json:"elements"`
		Chunks   int64     `json:"chunks"`
		SealedAt time.Time `json:"sealed_at"`
		Digest   string    `json:"digest"`
	} `json:"windows"`
}

// streamRun is one stream_ingest pass.
type streamRun struct {
	rc   *runCtx
	http *http.Client
	url  string // base/jobs/{id}

	appendS    []float64 // POST round trip of admitted chunks
	attempts   int
	rejected   int       // 429s
	pending    []float64 // backlog in splits after each admitted chunk
	early429   bool      // a 429 among the first window's chunks
	traceOpSeq int
}

func runStreamIngest(rc *runCtx) error {
	res := rc.res
	rc.lanes = 1
	d, err := setupRamrd(rc)
	if err != nil {
		return err
	}
	defer d.stop()

	hc := newHTTPClient(1)
	sessionSeed := subSeed(rc.seed, "stream-session", 0)
	body, _ := json.Marshal(map[string]any{
		"workload": "SYNTH", "seed": sessionSeed, "config": unpinned,
		"stream": map[string]any{"window": streamWindow},
	})
	var open struct {
		ID int `json:"id"`
	}
	if code, _, err := httpJSON(hc, http.MethodPost, d.url+"/jobs", body, &open); err != nil || code != http.StatusCreated {
		return fmt.Errorf("opening the streaming session: status %d: %v", code, err)
	}
	sr := &streamRun{rc: rc, http: hc, url: fmt.Sprintf("%s/jobs/%d", d.url, open.ID)}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(pollInterval) {
		var st struct {
			Stream struct {
				Started bool `json:"started"`
			} `json:"stream"`
		}
		if _, _, err := httpJSON(hc, http.MethodGet, sr.url, nil, &st); err != nil {
			return err
		}
		if st.Stream.Started {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("streaming session %d never started", open.ID)
		}
	}

	warm := rc.warmups()
	nA := rc.sized(streamRate/2.0, streamWindow+2) // even a smoke run seals one window under the open loop
	nB := rc.sized(streamClosedPerSecond, 5)
	ts := int64(0)
	for ; ts < int64(warm); ts++ {
		if !sr.send(ts, time.Time{}) {
			return fmt.Errorf("warm-up chunk %d refused", ts)
		}
	}
	sr.appendS, sr.attempts, sr.rejected, sr.pending = nil, 0, 0, nil

	// Phase A, open loop: chunk k is due k/rate after the start whether
	// or not the session keeps up, and is timed from when it was due.
	due := make(map[int64]time.Time, nA)
	var lateS, dueToAckS []float64
	begin := time.Now()
	for k := 0; k < nA; k, ts = k+1, ts+1 {
		at := begin.Add(time.Duration(k) * time.Second / streamRate)
		time.Sleep(time.Until(at))
		due[ts] = at
		lateS = append(lateS, time.Since(at).Seconds())
		res.Attempted++
		if !sr.send(ts, at) {
			res.fail("phase A chunk ts=%d refused after %d retries", ts, streamRetryBudget)
		}
		dueToAckS = append(dueToAckS, time.Since(at).Seconds())
	}
	pendingA := sr.pending
	var afterA windowsDoc
	if _, _, err := httpJSON(hc, http.MethodGet, sr.url+"/windows", nil, &afterA); err != nil {
		return err
	}

	// Phase B, closed loop: as fast as admitted, honouring 429.
	beginB := time.Now()
	for k := 0; k < nB; k, ts = k+1, ts+1 {
		res.Attempted++
		if !sr.send(ts, time.Time{}) {
			res.fail("phase B chunk ts=%d refused after %d retries", ts, streamRetryBudget)
		}
	}
	closeStart := time.Now()
	var final windowsDoc
	code, _, err := httpJSON(hc, http.MethodPost, sr.url+"/close", nil, &final)
	closeEnd := time.Now()
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("closing the session: status %d: %v", code, err)
	}
	rc.makespan = closeEnd.Sub(begin)
	rc.tr.root(sr.nextOp(), 0, "close", closeStart, closeEnd)

	// Conservation: every admitted element is in exactly one window and
	// every tick range that received a chunk sealed one.
	total := int64(warm + nA + nB)
	var elems uint64
	var chunks int64
	for _, w := range final.Windows {
		elems += w.Elements
		chunks += w.Chunks
	}
	wantWindows := int((total + streamWindow - 1) / streamWindow)
	if elems != uint64(total)*streamChunkElems || chunks != total || len(final.Windows) != wantWindows {
		res.fail("windows hold %d elements of %d chunks in %d windows, want %d of %d in %d",
			elems, chunks, len(final.Windows), uint64(total)*streamChunkElems, total, wantWindows)
	}
	res.Counts["chunks_open_loop"] = int64(nA)
	res.Counts["chunks_closed_loop"] = int64(nB)
	res.Counts["windows"] = int64(len(final.Windows))
	res.Counts["elements"] = int64(elems)

	// Window 0 covers elements [0, 20000) of the session's seed: the
	// output of a batch SYNTH job of that size, run here on Phoenix++.
	if !sr.early429 && total >= streamWindow && len(final.Windows) > 0 {
		ref, err := referenceRun(jobParams{App: "SYNTH", Class: workloads.Small, Seed: sessionSeed, Elements: streamWindow * streamChunkElems})
		if err != nil {
			return err
		}
		for _, w := range final.Windows {
			if w.Index == 0 && w.Digest != ref.String() {
				res.fail("window 0 digest %s, in-process Phoenix++ reference %s", w.Digest, ref)
			}
		}
	}

	// The open loop is valid only if the backlog did not grow under it.
	if n := len(pendingA) / 5; n > 0 {
		head, tail := median(pendingA[:n]), median(pendingA[len(pendingA)-n:])
		if tail > head+32 {
			res.fail("pending backlog grew under the open loop: median %.0f splits in the first fifth, %.0f in the last", head, tail)
		}
	}

	// Seal lag: a window seals when the chunk one tick past its end
	// arrives; the lag runs from when that chunk was due.
	var lagS []float64
	for _, w := range afterA.Windows {
		if at, ok := due[(w.Index+1)*streamWindow]; ok {
			lagS = append(lagS, w.SealedAt.Sub(at).Seconds())
		}
	}

	if len(lagS) == 0 {
		res.fail("no window sealed under the open loop: %d chunks", nA)
	}

	res.set("makespan_s", rc.makespan.Seconds())
	res.set("ingest_elems_per_s", float64(nB)*streamChunkElems/closeEnd.Sub(beginB).Seconds())
	res.setTiming("seal_lag_s_p50", lagS, 0.5)
	if rc.tr != nil {
		res.setTiming("stream.append_s_p50", sr.appendS, 0.5)
		res.setTiming("stream.seal_lag_s_p95", lagS, 0.95)
		if sr.attempts > 0 {
			res.set("stream.backpressure_share", float64(sr.rejected)/float64(sr.attempts))
		}
		res.set("stream.close_s", closeEnd.Sub(closeStart).Seconds())
		res.Notes["stream.append_s_p50"] = fmt.Sprintf("open loop: due→ack p50 %.4fs, generator ran %.5fs late at p50, %.5fs at worst",
			median(dueToAckS), median(lateS), quantile(lateS, 1))
		// The job settles just after /close returns; its result document
		// carries the session's aggregated SPSC counters.
		if settled, err := awaitResult(hc, d.url, open.ID, &jobTimes{}); err != nil {
			res.fail("streaming job did not settle: %v", err)
		} else if settled.Queue != nil {
			res.set("stream.failed_push_share", settled.Queue.FailedPushRate())
		}
		if st, err := fetchStats(hc, d.url); err == nil {
			res.set("sched.rejected", float64(st.Scheduler.Rejected))
		}
		if samples, err := scrapeMetrics(hc, d.url); err == nil {
			res.set("service.metrics_series", float64(len(samples)))
		}
	}
	res.set("peak_rss_mb", d.peakRSSMB())
	return nil
}

func (sr *streamRun) nextOp() int {
	sr.traceOpSeq++
	return sr.traceOpSeq
}

// send appends chunk ts, backing off as each 429 asks, and reports
// whether the session admitted it. due, when set, is the open loop's
// scheduled send time: the operation's span starts there.
func (sr *streamRun) send(ts int64, due time.Time) bool {
	tr := sr.rc.tr
	body := []byte(fmt.Sprintf(`{"ts":%d,"elements":%d}`, ts, streamChunkElems))
	op := sr.nextOp()
	start := time.Now()
	if !due.IsZero() {
		start = due
	}
	type attempt struct {
		t0, t1 time.Time
		sleep  time.Duration
	}
	var tries []attempt
	admitted := false
	for len(tries) <= streamRetryBudget {
		var ack chunkAck
		t0 := time.Now()
		code, _, err := httpJSON(sr.http, http.MethodPost, sr.url+"/chunks", body, &ack)
		t1 := time.Now()
		sr.attempts++
		if err != nil || (code != http.StatusAccepted && code != http.StatusTooManyRequests) {
			tries = append(tries, attempt{t0: t0, t1: t1})
			break
		}
		if code == http.StatusAccepted {
			tries = append(tries, attempt{t0: t0, t1: t1})
			sr.appendS = append(sr.appendS, t1.Sub(t0).Seconds())
			sr.pending = append(sr.pending, float64(ack.Pending))
			admitted = true
			break
		}
		sr.rejected++
		if ts < streamWindow {
			sr.early429 = true
		}
		sleep := max(time.Duration(ack.RetryAfterMS)*time.Millisecond, 10*time.Millisecond)
		tries = append(tries, attempt{t0: t0, t1: t1, sleep: sleep})
		time.Sleep(sleep)
	}
	if tr != nil {
		root := tr.root(op, 0, fmt.Sprintf("chunk ts=%d", ts), start, time.Now())
		for _, a := range tries {
			tr.child(root, op, "POST chunk", "stream", a.t0, a.t1)
			if a.sleep > 0 {
				tr.child(root, op, "backoff (429)", "stream.backpressure", a.t1, a.t1.Add(a.sleep))
			}
		}
	}
	return admitted
}
