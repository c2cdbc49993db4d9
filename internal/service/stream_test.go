package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ramr/internal/faultinject"
)

// postPath POSTs a JSON body to ts.URL+path and decodes the response.
func postPath(t *testing.T, ts *httptest.Server, path, body string) (int, map[string]any, http.Header) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decoding POST %s response (HTTP %d): %v", path, resp.StatusCode, err)
	}
	return resp.StatusCode, doc, resp.Header
}

// openStream submits a streaming SYNTH job and waits for the resident
// session to hold its grant (stream.started in the status document).
func openStream(t *testing.T, ts *httptest.Server, streamSpec string) int {
	t.Helper()
	return openStreamApp(t, ts, "SYNTH", streamSpec)
}

// openStreamApp is openStream for the named streaming workload.
func openStreamApp(t *testing.T, ts *httptest.Server, app, streamSpec string) int {
	t.Helper()
	body := fmt.Sprintf(`{"workload":%q,"max_cpus":8,"seed":5,"config":{"pin":"none"},"stream":%s}`, app, streamSpec)
	code, doc, _ := postPath(t, ts, "/jobs", body)
	if code != http.StatusCreated {
		t.Fatalf("POST /jobs (stream): HTTP %d (%v)", code, doc)
	}
	if doc["cached"] == true {
		t.Fatalf("streaming submission served from cache: %v", doc)
	}
	if doc["stream"] == nil {
		t.Fatalf("streaming submission status missing stream section: %v", doc)
	}
	id := int(doc["id"].(float64))
	awaitStarted(t, ts, id)
	return id
}

// awaitStarted polls stream job id's status until its session holds its
// grant, and returns that status document.
func awaitStarted(t *testing.T, ts *httptest.Server, id int) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, st := getJSON(t, fmt.Sprintf("%s/jobs/%d", ts.URL, id))
		if code != http.StatusOK {
			t.Fatalf("status for stream job %d: HTTP %d (%v)", id, code, st)
		}
		switch st["state"] {
		case "done", "canceled":
			t.Fatalf("stream job %d terminal before starting: %v", id, st)
		}
		if sec, ok := st["stream"].(map[string]any); ok && sec["started"] == true {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream job %d session not started after 30s: %v", id, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// postChunk appends one synthetic chunk at the given tick.
func postChunk(t *testing.T, ts *httptest.Server, id int, ts64 int64, elements int) (int, map[string]any, http.Header) {
	t.Helper()
	return postPath(t, ts, fmt.Sprintf("/jobs/%d/chunks", id),
		fmt.Sprintf(`{"ts":%d,"elements":%d}`, ts64, elements))
}

// sealedWindows polls GET /jobs/{id}/windows until at least want windows
// sealed, returning the window list.
func sealedWindows(t *testing.T, ts *httptest.Server, id, want int) []any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, doc := getJSON(t, fmt.Sprintf("%s/jobs/%d/windows", ts.URL, id))
		if code == http.StatusOK {
			ws, _ := doc["windows"].([]any)
			if len(ws) >= want {
				return ws
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream job %d: fewer than %d sealed windows after 30s", id, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func checkNoWorkerLeak(t *testing.T) {
	t.Helper()
	if leaked := faultinject.AwaitNoWorkers(5 * time.Second); len(leaked) > 0 {
		t.Fatalf("%d worker goroutines leaked:\n%s", len(leaked), strings.Join(leaked, "\n\n"))
	}
}

// TestStreamingSessionOverHTTP is the streaming acceptance path: one
// resident SYNTH session ingests three chunks arriving over time, serves
// two sealed tumbling windows while still running (no worker restart
// between windows), seals the third on close, and conserves every
// element per window.
func TestStreamingSessionOverHTTP(t *testing.T) {
	svc, ts, tr := newTestService(t, 0)
	id := openStream(t, ts, `{"window":1}`)

	const perChunk = 600
	for tick := int64(0); tick < 3; tick++ {
		code, doc, _ := postChunk(t, ts, id, tick, perChunk)
		if code != http.StatusAccepted {
			t.Fatalf("chunk ts=%d: HTTP %d (%v)", tick, code, doc)
		}
		if int64(doc["ts"].(float64)) != tick {
			t.Fatalf("chunk assigned ts %v, want %d", doc["ts"], tick)
		}
		time.Sleep(10 * time.Millisecond) // splits arrive over time
	}

	// Windows 0 and 1 seal behind the ts=2 watermark while the session
	// keeps running — the resident pipeline serves results mid-stream.
	ws := sealedWindows(t, ts, id, 2)
	code, st := getJSON(t, fmt.Sprintf("%s/jobs/%d", ts.URL, id))
	if code != http.StatusOK || st["state"] != "running" {
		t.Fatalf("session not resident after %d sealed windows: state=%v", len(ws), st["state"])
	}

	// A sealed window is individually addressable; an unsealed one is 202.
	code, w0 := getJSON(t, fmt.Sprintf("%s/jobs/%d/windows/0", ts.URL, id))
	if code != http.StatusOK || int(w0["index"].(float64)) != 0 {
		t.Fatalf("GET window 0: HTTP %d (%v)", code, w0)
	}
	if code, _ := getJSON(t, fmt.Sprintf("%s/jobs/%d/windows/2", ts.URL, id)); code != http.StatusAccepted {
		t.Fatalf("GET unsealed window 2: HTTP %d, want 202", code)
	}

	code, final, _ := postPath(t, ts, fmt.Sprintf("/jobs/%d/close", id), `{}`)
	if code != http.StatusOK {
		t.Fatalf("POST close: HTTP %d (%v)", code, final)
	}
	ws, _ = final["windows"].([]any)
	if len(ws) != 3 {
		t.Fatalf("closed session sealed %d windows, want 3", len(ws))
	}
	var total float64
	for i, wAny := range ws {
		w := wAny.(map[string]any)
		if got := w["elements"].(float64); got != perChunk {
			t.Fatalf("window %d conserved %.0f elements, want %d", i, got, perChunk)
		}
		if w["digest"] == nil || w["digest"] == "" {
			t.Fatalf("window %d missing digest: %v", i, w)
		}
		total += w["elements"].(float64)
	}
	if total != 3*perChunk {
		t.Fatalf("conservation across windows: %.0f elements, want %d", total, 3*perChunk)
	}

	doc := waitDone(t, ts, id)
	if doc["state"] != "done" || doc["error"] != nil {
		t.Fatalf("closed stream job settled %v (err %v)", doc["state"], doc["error"])
	}
	code, res := getJSON(t, fmt.Sprintf("%s/jobs/%d/result", ts.URL, id))
	if code != http.StatusOK || res["pairs"] == nil || res["pairs"].(float64) <= 0 {
		t.Fatalf("stream result: HTTP %d (%v)", code, res)
	}
	// The document is the one place the session's counts appear, so its
	// steal section books every task the session took.
	steal := res["steal"].(map[string]any)
	takes := steal["local_tasks"].(float64) + steal["socket_tasks"].(float64) + steal["remote_tasks"].(float64)
	if tasks := res["telemetry"].(map[string]any)["totals"].(map[string]any)["tasks"]; takes == 0 || takes != tasks {
		t.Fatalf("stream result's steal section books %v takes, its totals %v tasks", takes, tasks)
	}

	tr.check(t, svc.Scheduler().Budget())
	checkNoWorkerLeak(t)
}

// TestStreamBackpressure429 drives the admission bound: a chunk whose
// split count exceeds max_pending is rejected with 429 and a
// Retry-After hint, and the session keeps accepting fitting chunks.
func TestStreamBackpressure429(t *testing.T) {
	_, ts, _ := newTestService(t, 0)
	id := openStream(t, ts, `{"window":1,"max_pending":2}`)

	// 2048 elements split at 512 apiece = 4 splits > max_pending 2:
	// rejected no matter how drained the pipeline is.
	code, doc, hdr := postChunk(t, ts, id, 0, 2048)
	if code != http.StatusTooManyRequests {
		t.Fatalf("oversize chunk: HTTP %d (%v), want 429", code, doc)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After header")
	}
	if doc["retry_after_ms"] == nil || doc["retry_after_ms"].(float64) <= 0 {
		t.Fatalf("429 body missing retry_after_ms: %v", doc)
	}
	if doc["limit"].(float64) != 2 {
		t.Fatalf("429 body limit %v, want 2", doc["limit"])
	}

	if code, doc, _ := postChunk(t, ts, id, 0, 512); code != http.StatusAccepted {
		t.Fatalf("fitting chunk after 429: HTTP %d (%v)", code, doc)
	}
	if code, doc, _ := postPath(t, ts, fmt.Sprintf("/jobs/%d/close", id), `{}`); code != http.StatusOK {
		t.Fatalf("close after backpressure: HTTP %d (%v)", code, doc)
	}
	waitDone(t, ts, id)
	checkNoWorkerLeak(t)
}

// TestStreamOversizedChunk429: a SYNTH chunk more splits long than
// max_pending is refused with the backpressure 429 before its split list is
// built — at 10^15 elements, about 2·10^12 splits, the list alone would
// not fit in any memory — and the session keeps accepting fitting chunks.
func TestStreamOversizedChunk429(t *testing.T) {
	_, ts, _ := newTestService(t, 0)
	id := openStream(t, ts, `{"window":1,"max_pending":2}`)
	code, doc, hdr := postChunk(t, ts, id, 0, 1_000_000_000_000_000)
	if code != http.StatusTooManyRequests || hdr.Get("Retry-After") == "" {
		t.Fatalf("10^15-element chunk: HTTP %d (%v), Retry-After %q; want 429 with a Retry-After", code, doc, hdr.Get("Retry-After"))
	}
	if doc["limit"].(float64) != 2 {
		t.Fatalf("429 body limit %v, want 2", doc["limit"])
	}
	if code, doc, _ := postChunk(t, ts, id, 0, 1024); code != http.StatusAccepted {
		t.Fatalf("fitting chunk after the 429: HTTP %d (%v)", code, doc)
	}
	if code, doc, _ := postPath(t, ts, fmt.Sprintf("/jobs/%d/close", id), `{}`); code != http.StatusOK {
		t.Fatalf("close: HTTP %d (%v)", code, doc)
	}
	waitDone(t, ts, id)
	checkNoWorkerLeak(t)
}

// TestStreamChunkTickOutOfRange400: an explicit tick must name a window the
// session can seal. A negative ts is a client error, not an omitted one (an
// omitted ts is auto-assigned), and so is a tick whose window would end
// past the largest int64; both draw 400 and leave the session open.
func TestStreamChunkTickOutOfRange400(t *testing.T) {
	_, ts, _ := newTestService(t, 0)
	id := openStream(t, ts, `{"window":1}`)
	for _, tick := range []int64{-7, -1, math.MaxInt64} {
		if code, doc, _ := postChunk(t, ts, id, tick, 512); code != http.StatusBadRequest {
			t.Fatalf("chunk at tick %d: HTTP %d (%v), want 400", tick, code, doc)
		}
	}
	code, doc, _ := postPath(t, ts, fmt.Sprintf("/jobs/%d/chunks", id), `{"elements":512}`)
	if code != http.StatusAccepted || doc["ts"].(float64) != 0 {
		t.Fatalf("chunk with ts omitted: HTTP %d (%v), want 202 at tick 0", code, doc)
	}
	if code, doc, _ := postPath(t, ts, fmt.Sprintf("/jobs/%d/close", id), `{}`); code != http.StatusOK {
		t.Fatalf("close: HTTP %d (%v)", code, doc)
	}
	waitDone(t, ts, id)
	checkNoWorkerLeak(t)
}

// TestStreamHugeLatenessLosesNothing: "stream.lateness" may be as large as
// an int64 goes, and then the watermark never passes a window. At the
// largest Lateness the watermark minus the window once wrapped round:
// window 0 sealed on its first chunk, a second chunk inside it was admitted
// with 202, and the published window lacked its elements. Window 0 must
// stay open (202) until close, then hold both chunks.
func TestStreamHugeLatenessLosesNothing(t *testing.T) {
	_, ts, _ := newTestService(t, 0)
	id := openStream(t, ts, fmt.Sprintf(`{"window":10,"lateness":%d}`, int64(math.MaxInt64)))
	if code, doc, _ := postChunk(t, ts, id, 0, 512); code != http.StatusAccepted {
		t.Fatalf("chunk at tick 0: HTTP %d (%v)", code, doc)
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		_, doc := getJSON(t, fmt.Sprintf("%s/jobs/%d/windows", ts.URL, id))
		if st, _ := doc["stats"].(map[string]any); st != nil && st["pending"] == 0.0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the first chunk was never mapped")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // the kick after the split
	if code, w0 := getJSON(t, fmt.Sprintf("%s/jobs/%d/windows/0", ts.URL, id)); code != http.StatusAccepted {
		t.Fatalf("GET window 0 before close: HTTP %d (%v), want 202", code, w0)
	}
	if code, doc, _ := postChunk(t, ts, id, 5, 512); code != http.StatusAccepted {
		t.Fatalf("chunk at tick 5: HTTP %d (%v)", code, doc)
	}
	code, final, _ := postPath(t, ts, fmt.Sprintf("/jobs/%d/close", id), `{}`)
	if code != http.StatusOK {
		t.Fatalf("close: HTTP %d (%v)", code, final)
	}
	ws, _ := final["windows"].([]any)
	if len(ws) != 1 || ws[0].(map[string]any)["elements"] != 1024.0 {
		t.Fatalf("windows %v, want window 0 alone with all 1024 elements", ws)
	}
	waitDone(t, ts, id)
	checkNoWorkerLeak(t)
}

// TestStreamDeleteCancelsResident covers DELETE on an open session: the
// resident pipeline is torn down, the CPU grant returns to the budget
// promptly, and no worker goroutine survives.
func TestStreamDeleteCancelsResident(t *testing.T) {
	svc, ts, _ := newTestService(t, 0)
	id := openStream(t, ts, `{"window":1}`)
	if code, doc, _ := postChunk(t, ts, id, 0, 600); code != http.StatusAccepted {
		t.Fatalf("chunk before cancel: HTTP %d (%v)", code, doc)
	}

	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/jobs/%d", ts.URL, id), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE open session: HTTP %d, want 204", resp.StatusCode)
	}

	// A running session cancelled mid-grant drains and settles canceled,
	// like a job pulled from the queue, with the cancellation error.
	doc := waitDone(t, ts, id)
	if doc["state"] != "canceled" || doc["error"] == nil {
		t.Fatalf("cancelled session settled state=%v error=%v", doc["state"], doc["error"])
	}
	// The grant is back by the time the job reads terminal.
	if st := svc.Scheduler().Stats(); st.InUse != 0 {
		t.Fatalf("CPU grant not freed after cancel: %+v", st)
	}
	// The dead session rejects further chunks instead of hanging.
	if code, doc, _ := postChunk(t, ts, id, 1, 600); code != http.StatusConflict {
		t.Fatalf("chunk after cancel: HTTP %d (%v), want 409", code, doc)
	}
	checkNoWorkerLeak(t)
}

// TestStreamBypassesMemo proves streaming submissions are never
// memoized or coalesced: an identical concurrent submission gets its
// own resident session (not a follower), and an identical repeat after
// completion re-executes instead of answering 200 from the cache.
func TestStreamBypassesMemo(t *testing.T) {
	svc, ts, _ := newTestService(t, 0)

	runOnce := func() int {
		id := openStream(t, ts, `{"window":1}`)
		if code, doc, _ := postChunk(t, ts, id, 0, 512); code != http.StatusAccepted {
			t.Fatalf("chunk: HTTP %d (%v)", code, doc)
		}
		return id
	}

	id1 := runOnce()
	// Identical submission while id1 is in flight: a second 201 with its
	// own session, never a coalesced follower.
	id2 := openStream(t, ts, `{"window":1}`)
	if id2 == id1 {
		t.Fatalf("duplicate streaming submission reused job %d", id1)
	}
	_, st2 := getJSON(t, fmt.Sprintf("%s/jobs/%d", ts.URL, id2))
	if st2["coalesced"] == true {
		t.Fatalf("streaming submission coalesced onto job %d: %v", id1, st2)
	}
	for _, id := range []int{id1, id2} {
		if code, doc, _ := postPath(t, ts, fmt.Sprintf("/jobs/%d/close", id), `{}`); code != http.StatusOK {
			t.Fatalf("close %d: HTTP %d (%v)", id, code, doc)
		}
		waitDone(t, ts, id)
	}

	// Identical repeat after both completed: still a fresh execution.
	id3 := runOnce()
	if code, doc, _ := postPath(t, ts, fmt.Sprintf("/jobs/%d/close", id3), `{}`); code != http.StatusOK {
		t.Fatalf("close %d: HTTP %d (%v)", id3, code, doc)
	}
	waitDone(t, ts, id3)

	if cs := svc.Cache().Stats(); cs.Hits != 0 || cs.Entries != 0 || cs.Coalesced != 0 {
		t.Fatalf("streaming leaked into the memo path: %+v", cs)
	}
	checkNoWorkerLeak(t)
}

// TestStreamConcurrentProducersOverHTTP hammers one session from
// several producers with auto-assigned ticks and backpressure retries,
// then checks exact element conservation across every sealed window.
func TestStreamConcurrentProducersOverHTTP(t *testing.T) {
	_, ts, _ := newTestService(t, 0)
	id := openStream(t, ts, `{"window":2,"max_pending":8}`)

	const producers, perProducer, perChunk = 4, 12, 256
	var wg sync.WaitGroup
	errs := make(chan error, producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				for {
					resp, err := http.Post(
						fmt.Sprintf("%s/jobs/%d/chunks", ts.URL, id),
						"application/json",
						strings.NewReader(fmt.Sprintf(`{"elements":%d}`, perChunk)))
					if err != nil {
						errs <- err
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					switch resp.StatusCode {
					case http.StatusAccepted:
					case http.StatusTooManyRequests:
						time.Sleep(2 * time.Millisecond)
						continue
					default:
						errs <- fmt.Errorf("chunk: HTTP %d", resp.StatusCode)
						return
					}
					break
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	code, final, _ := postPath(t, ts, fmt.Sprintf("/jobs/%d/close", id), `{}`)
	if code != http.StatusOK {
		t.Fatalf("close: HTTP %d (%v)", code, final)
	}
	var total float64
	ws, _ := final["windows"].([]any)
	for _, wAny := range ws {
		total += wAny.(map[string]any)["elements"].(float64)
	}
	if want := float64(producers * perProducer * perChunk); total != want {
		t.Fatalf("conservation across %d windows: %.0f elements, want %.0f", len(ws), total, want)
	}
	waitDone(t, ts, id)
	checkNoWorkerLeak(t)
}

// TestStreamMetricsExposition scrapes /metrics with a live streaming
// session: the ramr_stream_* families must be present, carry the
// session's traffic, and the whole exposition must satisfy the strict
// format checker. The watermark lag is one unlabelled gauge, the largest
// over the live sessions: it reads the open session's lag, each session's
// own lag is in its status document, and it reads 0 once none is open.
// The workload's counters read the open session's live ledger and do not
// fall when it settles.
func TestStreamMetricsExposition(t *testing.T) {
	_, ts, _ := newTestService(t, 0)
	id := openStream(t, ts, `{"window":1,"max_pending":2}`)
	for tick := int64(0); tick < 2; tick++ {
		if code, doc, _ := postChunk(t, ts, id, tick, 512); code != http.StatusAccepted {
			t.Fatalf("chunk ts=%d: HTTP %d (%v)", tick, code, doc)
		}
	}
	if code, _, _ := postChunk(t, ts, id, 2, 2048); code != http.StatusTooManyRequests {
		t.Fatalf("oversize chunk: HTTP %d, want 429", code)
	}
	sealedWindows(t, ts, id, 1)

	const lagGauge = "ramr_stream_watermark_lag_seconds"
	text, samples := scrapeMetrics(t, ts)
	noJobLabel(t, samples)
	for _, want := range []string{
		"ramr_stream_chunks_total 2",
		"ramr_stream_backpressure_total 1",
		"ramr_stream_sessions_open 1",
		"# TYPE ramr_stream_windows_sealed_total counter",
		"\n" + lagGauge + " ",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%.1200s", want, text)
		}
	}
	_, st := getJSON(t, fmt.Sprintf("%s/jobs/%d", ts.URL, id))
	own := st["stream"].(map[string]any)["stats"].(map[string]any)["watermark_lag"].(float64)
	_, later := scrapeMetrics(t, ts)
	if lag := later[lagGauge]; lag <= 0 || lag*1e9 < own {
		t.Fatalf("%s = %vs with one session open, its document read %vns before", lagGauge, lag, own)
	}
	const tasks = `ramr_job_tasks_total{workload="SYNTH",engine="RAMR",priority="normal"}`
	live := later[tasks]
	if live == 0 {
		t.Fatalf("%s reads 0 with a live session that sealed a window", tasks)
	}

	if code, doc, _ := postPath(t, ts, fmt.Sprintf("/jobs/%d/close", id), `{}`); code != http.StatusOK {
		t.Fatalf("close: HTTP %d (%v)", code, doc)
	}
	waitDone(t, ts, id)
	_, samples = scrapeMetrics(t, ts)
	if samples[lagGauge] != 0 {
		t.Fatalf("%s = %v with no session open", lagGauge, samples[lagGauge])
	}
	if samples[tasks] < live {
		t.Fatalf("%s fell from %v to %v when the session settled", tasks, live, samples[tasks])
	}
	checkNoWorkerLeak(t)
}

// TestWordCountStreamOverHTTP is the WC streaming acceptance path: a
// resident Word Count session ingests real text lines over HTTP (not
// synthetic element counts), seals per-tick windows with exact word
// counts, and rejects element-style chunks with a client error.
func TestWordCountStreamOverHTTP(t *testing.T) {
	svc, ts, tr := newTestService(t, 0)

	code, doc, _ := postPath(t, ts, "/jobs",
		`{"workload":"WC","max_cpus":8,"config":{"pin":"none"},"stream":{"window":1}}`)
	if code != http.StatusCreated {
		t.Fatalf("POST /jobs (WC stream): HTTP %d (%v)", code, doc)
	}
	id := int(doc["id"].(float64))
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, st := getJSON(t, fmt.Sprintf("%s/jobs/%d", ts.URL, id))
		if code != http.StatusOK {
			t.Fatalf("status for WC stream job %d: HTTP %d (%v)", id, code, st)
		}
		if sec, ok := st["stream"].(map[string]any); ok && sec["started"] == true {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("WC stream session not started after 30s: %v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Tick 0: "to be or not to be" — to:2 be:2 or:1 not:1, six words.
	// Tick 1: one line repeated over two lines of the same chunk.
	chunks := []string{
		`{"ts":0,"lines":["to be or not to be"]}`,
		`{"ts":1,"lines":["ramr ramr runtime","ramr"]}`,
		`{"ts":2,"lines":["drain the watermark"]}`,
	}
	for i, body := range chunks {
		code, doc, _ := postPath(t, ts, fmt.Sprintf("/jobs/%d/chunks", id), body)
		if code != http.StatusAccepted {
			t.Fatalf("WC chunk %d: HTTP %d (%v)", i, code, doc)
		}
	}

	// An element-style chunk (the SYNTH shape) is the client's fault.
	if code, doc, _ := postPath(t, ts, fmt.Sprintf("/jobs/%d/chunks", id),
		`{"ts":2,"elements":100}`); code != http.StatusBadRequest {
		t.Fatalf("element chunk on a WC stream: HTTP %d, want 400 (%v)", code, doc)
	}

	ws := sealedWindows(t, ts, id, 2)
	w0 := ws[0].(map[string]any)
	if got := w0["elements"].(float64); got != 6 {
		t.Fatalf("window 0 folded %.0f words, want 6", got)
	}
	if got := w0["pairs"].(float64); got != 4 {
		t.Fatalf("window 0 has %.0f distinct words, want 4", got)
	}
	if w0["digest"] == nil || w0["digest"] == "" {
		t.Fatalf("window 0 missing digest: %v", w0)
	}
	counts := map[string]string{}
	for _, sp := range w0["sample"].([]any) {
		p := sp.(map[string]any)
		counts[p["key"].(string)] = p["value"].(string)
	}
	for word, want := range map[string]string{"to": "2", "be": "2", "or": "1", "not": "1"} {
		if counts[word] != want {
			t.Fatalf("window 0 sample: %s=%q, want %q (full: %v)", word, counts[word], want, counts)
		}
	}
	w1 := ws[1].(map[string]any)
	if got := w1["elements"].(float64); got != 4 {
		t.Fatalf("window 1 folded %.0f words, want 4", got)
	}
	if got := w1["splits"].(float64); got != 2 {
		t.Fatalf("window 1 saw %.0f splits (lines), want 2", got)
	}

	code, final, _ := postPath(t, ts, fmt.Sprintf("/jobs/%d/close", id), `{}`)
	if code != http.StatusOK {
		t.Fatalf("close: HTTP %d (%v)", code, final)
	}
	if ws, _ := final["windows"].([]any); len(ws) != 3 {
		t.Fatalf("closed WC session sealed %d windows, want 3", len(ws))
	}
	doc = waitDone(t, ts, id)
	if doc["state"] != "done" || doc["error"] != nil {
		t.Fatalf("closed WC stream settled %v (err %v)", doc["state"], doc["error"])
	}

	tr.check(t, svc.Scheduler().Budget())
	checkNoWorkerLeak(t)
}

// TestWordCountStreamVocabularyUnbounded: a WC stream without a container
// counts any vocabulary. The client's text, not a generator, decides how
// many distinct words a window sees, so one chunk of 10,001 distinct words
// — one more than WC's fixed-size table holds — seals into one window of
// 10,001 pairs.
func TestWordCountStreamVocabularyUnbounded(t *testing.T) {
	svc, ts, tr := newTestService(t, 0)
	id := openStreamApp(t, ts, "WC", `{"window":1}`)

	const distinct = 10_001
	words := make([]string, distinct)
	for i := range words {
		words[i] = fmt.Sprintf("w%d", i)
	}
	line, err := json.Marshal([]string{strings.Join(words, " ")})
	if err != nil {
		t.Fatal(err)
	}
	if code, doc, _ := postPath(t, ts, fmt.Sprintf("/jobs/%d/chunks", id), fmt.Sprintf(`{"ts":0,"lines":%s}`, line)); code != http.StatusAccepted {
		t.Fatalf("chunk: HTTP %d (%v)", code, doc)
	}
	code, final, _ := postPath(t, ts, fmt.Sprintf("/jobs/%d/close", id), `{}`)
	if code != http.StatusOK {
		t.Fatalf("close: HTTP %d (%v)", code, final)
	}
	ws, _ := final["windows"].([]any)
	if len(ws) != 1 {
		t.Fatalf("closed session sealed %d windows, want 1 (%v)", len(ws), final)
	}
	if got := ws[0].(map[string]any)["pairs"].(float64); got != distinct {
		t.Fatalf("window 0 has %.0f pairs, want %d", got, distinct)
	}
	if doc := waitDone(t, ts, id); doc["state"] != "done" || doc["error"] != nil {
		t.Fatalf("session settled %v (err %v)", doc["state"], doc["error"])
	}

	tr.check(t, svc.Scheduler().Budget())
	checkNoWorkerLeak(t)
}
