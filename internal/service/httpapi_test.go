package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ramr/internal/obs"
	"ramr/internal/sched"
)

// fakeBackend is an in-memory Backend: jobs settle when the test says so.
type fakeBackend struct {
	mu       sync.Mutex
	jobs     map[int]*fakeJob
	deletes  int
	draining bool
	admitErr error // returned by the next Admit
}

type fakeJob struct {
	Settlement
	id  int
	rec *obs.Recorder
	doc any // overrides the default document
}

func (j *fakeJob) ID() int              { return j.id }
func (j *fakeJob) Trace() *obs.Recorder { return j.rec }
func (j *fakeJob) Doc(detail bool) any {
	if j.doc != nil {
		return j.doc
	}
	return map[string]any{"id": j.id, "settled": j.IsSettled(), "detail": detail}
}

func (b *fakeBackend) Admit(req *JobRequest, rec *obs.Recorder) (Job, bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.admitErr; err != nil {
		b.admitErr = nil
		return nil, false, err
	}
	j := &fakeJob{Settlement: NewSettlement(), id: len(b.jobs) + 1, rec: rec}
	b.jobs[j.id] = j
	cached := req.Workload == "CACHED"
	if cached {
		j.Settle()
	}
	return j, cached, nil
}

func (b *fakeBackend) Job(id int) (Job, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if j, ok := b.jobs[id]; ok {
		return j, true
	}
	return nil, false
}

func (b *fakeBackend) Jobs() []Job {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []Job
	for _, j := range b.jobs {
		out = append(out, j)
	}
	return out
}

func (b *fakeBackend) Cancel(j Job) (string, bool) {
	if !j.(*fakeJob).IsSettled() {
		return "", true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.jobs, j.ID())
	b.deletes++
	return "done", false
}

func (b *fakeBackend) Stats() any { return map[string]any{"role": "fake"} }
func (b *fakeBackend) WriteMetrics(w io.Writer) error {
	_, err := io.WriteString(w, "fake_metric 1\n")
	return err
}
func (b *fakeBackend) Ready() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.draining
}

func newFakeAPI(t *testing.T) (*fakeBackend, *httptest.Server) {
	t.Helper()
	b := &fakeBackend{jobs: map[int]*fakeJob{}}
	ts := httptest.NewServer(NewAPI(b, "job", slog.New(slog.DiscardHandler)))
	t.Cleanup(ts.Close)
	return b, ts
}

// do issues one request and returns the status, the decoded JSON body (nil
// when the body is not a JSON object) and the response headers.
func do(t *testing.T, method, url, body string) (int, map[string]any, http.Header) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var doc map[string]any
	_ = json.Unmarshal(raw, &doc) // not every route answers JSON
	return resp.StatusCode, doc, resp.Header
}

// TestFrontEndStatusTable drives every shared route over the fake backend
// and pins the error→status table, with the protocol header on every
// response — error responses included.
func TestFrontEndStatusTable(t *testing.T) {
	b, ts := newFakeAPI(t)
	step := func(name, method, path, body string, wantCode int) (map[string]any, http.Header) {
		t.Helper()
		code, doc, hdr := do(t, method, ts.URL+path, body)
		if code != wantCode {
			t.Fatalf("%s: %s %s → HTTP %d (%v), want %d", name, method, path, code, doc, wantCode)
		}
		if got := hdr.Get(ProtoHeader); got != ProtoVersion {
			t.Fatalf("%s: HTTP %d response carries proto header %q, want %q", name, code, got, ProtoVersion)
		}
		return doc, hdr
	}

	// Submission: decode errors and backend rejections.
	step("malformed body", "POST", "/jobs", `{`, 400)
	step("unknown field", "POST", "/jobs", `{"workload":"WC","bogus":1}`, 400)
	b.admitErr = errors.New("no such workload")
	step("backend rejects", "POST", "/jobs", `{"workload":"X"}`, 400)
	b.admitErr = fmt.Errorf("full: %w", sched.ErrSaturated)
	step("saturated", "POST", "/jobs", `{"workload":"X"}`, 429)
	b.admitErr = fmt.Errorf("closing: %w", sched.ErrDraining)
	step("draining", "POST", "/jobs", `{"workload":"X"}`, 503)

	// Admitted 201 with a Location; cached 200 with the detailed document.
	doc, hdr := step("admitted", "POST", "/jobs", `{"workload":"X"}`, 201)
	if hdr.Get("Location") != "/jobs/1" || doc["detail"] != false {
		t.Fatalf("admitted: Location %q doc %v", hdr.Get("Location"), doc)
	}
	doc, hdr = step("cached", "POST", "/jobs", `{"workload":"CACHED"}`, 200)
	if hdr.Get("Location") != "" || doc["detail"] != true {
		t.Fatalf("cached: Location %q doc %v", hdr.Get("Location"), doc)
	}

	// Lookup failures; a malformed id names no job.
	for _, path := range []string{"/jobs/99", "/jobs/abc", "/jobs/99/result", "/jobs/99/trace"} {
		step("unknown job", "GET", path, "", 404)
	}
	step("unknown job", "DELETE", "/jobs/99", "", 404)

	// Live job: status, 202 result, bad wait, list, trace, cancel.
	step("status", "GET", "/jobs/1", "", 200)
	if doc, _ = step("live result", "GET", "/jobs/1/result", "", 202); doc["detail"] != false {
		t.Fatalf("live result carries the detailed document: %v", doc)
	}
	for _, bad := range []string{"soon", "-1s", "5"} {
		step("bad wait", "GET", "/jobs/1/result?wait="+bad, "", 400)
	}
	if doc, _ = step("list", "GET", "/jobs", "", 200); len(doc["jobs"].([]any)) != 2 ||
		doc["jobs"].([]any)[0].(map[string]any)["id"] != float64(1) {
		t.Fatalf("list is not the two jobs in id order: %v", doc)
	}
	step("trace", "GET", "/jobs/1/trace", "", 200)
	step("cancel live", "DELETE", "/jobs/1", "", 204)

	// A lapsed wait answers 202, and only after the wait.
	start := time.Now()
	step("lapsed wait", "GET", "/jobs/1/result?wait=40ms", "", 202)
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Fatalf("wait=40ms on a live job answered after %v", d)
	}

	// A parked waiter is released by the settlement itself.
	got := make(chan int, 1)
	go func() {
		code, _, _ := do(t, "GET", ts.URL+"/jobs/1/result?wait=20s", "")
		got <- code
	}()
	select {
	case code := <-got:
		t.Fatalf("waiter answered HTTP %d while the job was live", code)
	case <-time.After(20 * time.Millisecond):
	}
	b.jobs[1].Settle()
	if code := <-got; code != 200 {
		t.Fatalf("released waiter: HTTP %d, want 200", code)
	}
	if doc, _ = step("settled result", "GET", "/jobs/1/result", "", 200); doc["detail"] != true {
		t.Fatalf("settled result lacks the detailed document: %v", doc)
	}

	// DELETE of a settled job: 409 naming the state, the record deleted
	// exactly once, then 404.
	if doc, _ = step("cancel settled", "DELETE", "/jobs/1", "", 409); doc["state"] != "done" {
		t.Fatalf("409 body does not name the terminal state: %v", doc)
	}
	step("cancel deleted", "DELETE", "/jobs/1", "", 404)
	if b.deletes != 1 {
		t.Fatalf("%d records deleted, want exactly 1", b.deletes)
	}

	// Backend documents and probes; readiness follows the backend,
	// liveness does not.
	if doc, _ = step("stats", "GET", "/stats", "", 200); doc["role"] != "fake" {
		t.Fatalf("/stats is not the backend's document: %v", doc)
	}
	step("metrics", "GET", "/metrics", "", 200)
	step("ready", "GET", "/readyz", "", 200)
	b.mu.Lock()
	b.draining = true
	b.mu.Unlock()
	step("ready while draining", "GET", "/readyz", "", 503)
	step("alive while draining", "GET", "/healthz", "", 200)
}

// TestResultWaitCapAndHangUp: wait is capped at MaxResultWait, and a
// client that hangs up mid-wait releases its handler — no goroutine is
// left parked on a job that never settles.
func TestResultWaitCapAndHangUp(t *testing.T) {
	r := httptest.NewRequest("GET", "/jobs/1/result?wait=5m", nil)
	if d, err := ParseResultWait(r); err != nil || d != MaxResultWait {
		t.Fatalf("wait=5m parsed as %v, %v; want the %v cap", d, err, MaxResultWait)
	}

	b := &fakeBackend{jobs: map[int]*fakeJob{1: {Settlement: NewSettlement(), id: 1}}}
	api := NewAPI(b, "job", slog.New(slog.DiscardHandler))
	ctx, hangUp := context.WithCancel(context.Background())
	req := httptest.NewRequest("GET", "/jobs/1/result?wait=30s", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	returned := make(chan struct{})
	go func() {
		api.ServeHTTP(rec, req)
		close(returned)
	}()
	select {
	case <-returned:
		t.Fatal("handler returned while the job was live and the client connected")
	case <-time.After(20 * time.Millisecond):
	}
	hangUp()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("handler still parked 5s after the client hung up")
	}
	if rec.Code != http.StatusAccepted {
		t.Fatalf("hung-up wait answered HTTP %d, want 202", rec.Code)
	}
}

// TestWriteJSONEncodeError: an unencodable document becomes a logged 500
// with a well-formed JSON error body, never a 200 with a truncated body —
// through the envelope directly and through a route.
func TestWriteJSONEncodeError(t *testing.T) {
	check := func(code int, body []byte) {
		t.Helper()
		if code != http.StatusInternalServerError {
			t.Fatalf("HTTP %d, want 500", code)
		}
		var doc map[string]string
		if err := json.Unmarshal(body, &doc); err != nil || doc["error"] == "" {
			t.Fatalf("500 body is not a JSON error document: %q", body)
		}
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, slog.New(slog.DiscardHandler), http.StatusOK, map[string]any{"bad": math.NaN()})
	check(rec.Code, rec.Body.Bytes())

	sink := &sharedLogSink{}
	b := &fakeBackend{jobs: map[int]*fakeJob{
		1: {Settlement: NewSettlement(), id: 1, doc: map[string]any{"bad": math.NaN()}},
	}}
	rec = httptest.NewRecorder()
	NewAPI(b, "job", slog.New(&sinkHandler{sink: sink})).ServeHTTP(rec, httptest.NewRequest("GET", "/jobs/1", nil))
	check(rec.Code, rec.Body.Bytes())
	if line := sink.find("service: encoding response"); line == nil || line["job_id"] != int64(1) {
		t.Fatalf("encode failure not logged with the job's id: %v", line)
	}
}

// TestRetire pins the shared retention rule: oldest-finished first, ids
// breaking ties, a negative bound retaining everything.
func TestRetire(t *testing.T) {
	t0 := time.Unix(1000, 0)
	finished := map[int]time.Time{1: t0, 2: t0, 3: t0.Add(time.Second), 4: t0.Add(2 * time.Second)}
	for _, tc := range []struct {
		bound int
		want  string
	}{{-1, "[]"}, {4, "[]"}, {3, "[1]"}, {1, "[1 2 3]"}, {0, "[1 2 3 4]"}} {
		var removed []int
		ret := NewRetention(tc.bound, func(j *fakeJob) { removed = append(removed, j.id) })
		for id := 1; id <= 4; id++ {
			ret.Settled(&fakeJob{Settlement: NewSettlement(), id: id}, finished[id])
		}
		if got := fmt.Sprint(removed); got != tc.want {
			t.Errorf("bound %d removed %s, want %s", tc.bound, got, tc.want)
		}
	}
}

// TestRetireSettlesOutOfFinishOrder: records settle in another order than
// they finished — a publication takes longer for one than for the next —
// and the bound still removes the oldest-finished first, ties by id; a
// record removed by its backend (a DELETE) is no longer counted or
// removed again. A settle allocates nothing once the heap reached the
// bound.
func TestRetireSettlesOutOfFinishOrder(t *testing.T) {
	t0 := time.Unix(1000, 0)
	var removed []int
	ret := NewRetention(3, func(j *fakeJob) { removed = append(removed, j.id) })
	jobs := map[int]*fakeJob{}
	settle := func(id int, at time.Duration) {
		jobs[id] = &fakeJob{Settlement: NewSettlement(), id: id}
		ret.Settled(jobs[id], t0.Add(at))
	}
	settle(5, 5*time.Second)
	settle(2, 2*time.Second)
	settle(9, 2*time.Second) // finished with 2, a higher id
	if len(removed) != 0 {
		t.Fatalf("removed %v within the bound", removed)
	}
	settle(1, 1*time.Second) // the oldest of four: it goes at once
	settle(7, 7*time.Second) // now 2 goes, then 9
	settle(6, 6*time.Second)
	if got := fmt.Sprint(removed); got != "[1 2 9]" {
		t.Fatalf("removed %s, want [1 2 9]", got)
	}
	ret.Forget(jobs[6]) // deleted by its backend: 5 and 7 remain
	ret.Forget(jobs[1]) // already gone: ignored
	settle(8, 8*time.Second)
	if got := fmt.Sprint(removed); got != "[1 2 9]" {
		t.Fatalf("after a Forget, removed %s, want [1 2 9]", got)
	}
	settle(3, 3*time.Second)
	if got := fmt.Sprint(removed); got != "[1 2 9 3]" {
		t.Fatalf("removed %s, want [1 2 9 3]", got)
	}

	next := 100
	j := &fakeJob{Settlement: NewSettlement()}
	removed = make([]int, 0, 1000) // the callback's own appends allocate nothing either
	if allocs := testing.AllocsPerRun(100, func() {
		next++
		j.id = next
		ret.Settled(j, t0.Add(time.Duration(next)*time.Second))
	}); allocs != 0 {
		t.Errorf("a settle at the bound allocates %.1f times", allocs)
	}
}
