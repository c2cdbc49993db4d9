package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ramr/internal/telemetry"
	"ramr/internal/topology"
)

// fetchTrace decodes the Chrome trace-event array served at
// /jobs/{id}/trace.
func fetchTrace(t *testing.T, ts *httptest.Server, id int) (int, []map[string]any) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/jobs/%d/trace", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	var events []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatalf("trace for job %d is not a JSON array: %v", id, err)
	}
	return resp.StatusCode, events
}

// spanNames collects the names of the "X" (complete) events in a trace.
func spanNames(events []map[string]any) map[string]map[string]any {
	spans := map[string]map[string]any{}
	for _, ev := range events {
		if ev["ph"] == "X" {
			spans[ev["name"].(string)] = ev
		}
	}
	return spans
}

// TestJobTraceLifecycle asserts the tentpole acceptance: a job submitted
// over HTTP yields a retrievable trace covering receive, queue wait,
// grant allocation (with the CPU set as span args), the input build
// inside the grant and the engine execution with its phases, in that
// order, all under a root span naming the job.
func TestJobTraceLifecycle(t *testing.T) {
	_, ts, _ := newTestService(t, 0)
	code, doc := postJob(t, ts, `{"workload":"WC","seed":1,"config":{"pin":"none"}}`)
	if code != http.StatusCreated {
		t.Fatalf("POST: HTTP %d (%v)", code, doc)
	}
	id := int(doc["id"].(float64))
	waitDone(t, ts, id)
	_, events := fetchTrace(t, ts, id)

	// Metadata first, then a monotonic timeline.
	inMeta := true
	lastTs := -1.0
	for i, ev := range events {
		if ev["ph"] == "M" {
			if !inMeta {
				t.Fatalf("event %d: metadata after timeline events", i)
			}
			continue
		}
		inMeta = false
		ts := ev["ts"].(float64)
		if ts < lastTs {
			t.Fatalf("event %d (%v): ts %v < previous %v", i, ev["name"], ts, lastTs)
		}
		lastTs = ts
	}

	spans := spanNames(events)
	for _, want := range []string{"job", "receive", "build", "queue-wait", "grant-alloc", "execute"} {
		if _, ok := spans[want]; !ok {
			t.Fatalf("trace missing span %q; have %v", want, keys(spans))
		}
	}
	// Spans start in lifecycle order, and the build sits inside the
	// grant: after the allocation (itself the tail of the queue wait),
	// before the engine, overlapping neither.
	order := []string{"receive", "queue-wait", "grant-alloc", "build", "execute"}
	for i := 1; i < len(order); i++ {
		prev, next := spans[order[i-1]], spans[order[i]]
		bound := prev["ts"].(float64)
		if order[i] != "grant-alloc" {
			bound += prev["dur"].(float64)
		}
		// Chrome-trace times are microseconds with nanosecond
		// fractions; allow one for rounding.
		if next["ts"].(float64) < bound-0.001 {
			t.Fatalf("%s starts at %vus, before %s (%vus + %vus) allows",
				order[i], next["ts"], order[i-1], prev["ts"], prev["dur"])
		}
	}
	root := spans["job"]
	args, _ := root["args"].(map[string]any)
	if args == nil || int(args["job_id"].(float64)) != id || args["workload"] != "WC" {
		t.Fatalf("root span args = %v, want job_id=%d workload=WC", args, id)
	}
	if args["status"] != "done" {
		t.Fatalf("root span status = %v, want done", args["status"])
	}
	ga, _ := spans["grant-alloc"]["args"].(map[string]any)
	if ga == nil {
		t.Fatal("grant-alloc span has no args")
	}
	cpus, _ := ga["cpus"].([]any)
	if len(cpus) == 0 {
		t.Fatalf("grant-alloc args carry no cpus: %v", ga)
	}
	ea, _ := spans["execute"]["args"].(map[string]any)
	if ea == nil || len(ea["cpus"].([]any)) != len(cpus) {
		t.Fatalf("execute span cpus %v != grant %v", ea, cpus)
	}
	// At least one engine phase span must have been stitched in.
	havePhase := false
	for name := range spans {
		if strings.HasPrefix(name, "phase:") {
			havePhase = true
		}
	}
	if !havePhase {
		t.Fatalf("no phase:* span in trace; have %v", keys(spans))
	}
}

func keys(m map[string]map[string]any) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestMemoHitTraceShort asserts a memo hit serves a short hit-only
// trace: its own record id, a memo-hit instant naming the executor, a
// root status of "cached", and no build, execution or queue-wait spans.
func TestMemoHitTraceShort(t *testing.T) {
	_, ts, _ := newMemoService(t, Config{Seed: 5})
	body := `{"workload":"WC","seed":9,"config":{"pin":"none"}}`
	code, doc := postJob(t, ts, body)
	if code != http.StatusCreated {
		t.Fatalf("first POST: HTTP %d", code)
	}
	execID := int(doc["id"].(float64))
	waitDone(t, ts, execID)

	code, hit := postJob(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("repeat POST: HTTP %d (%v)", code, hit)
	}
	hitID := int(hit["id"].(float64))
	code, events := fetchTrace(t, ts, hitID)
	if code != http.StatusOK {
		t.Fatalf("trace for hit record %d: HTTP %d", hitID, code)
	}
	spans := spanNames(events)
	for _, absent := range []string{"build", "execute", "queue-wait", "grant-alloc"} {
		if _, ok := spans[absent]; ok {
			t.Fatalf("memo-hit trace contains %q span; hits must neither build nor execute", absent)
		}
	}
	if args, _ := spans["job"]["args"].(map[string]any); args["status"] != "cached" {
		t.Fatalf("hit root status = %v, want cached", args["status"])
	}
	foundInstant := false
	for _, ev := range events {
		if ev["ph"] == "i" && ev["name"] == "memo-hit" {
			foundInstant = true
			args, _ := ev["args"].(map[string]any)
			if got := int(args["executed_by"].(float64)); got != execID {
				t.Fatalf("memo-hit instant names executor %d, want %d", got, execID)
			}
		}
	}
	if !foundInstant {
		t.Fatal("no memo-hit instant in hit trace")
	}
}

// TestReadyzDraining asserts satellite 1: /readyz answers 200 while
// serving and 503 once Shutdown starts draining, while the /healthz
// liveness probe stays 200 throughout.
func TestReadyzDraining(t *testing.T) {
	svc, ts, _ := newTestService(t, 0)
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s before drain: HTTP %d", path, resp.StatusCode)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining: HTTP %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while draining: HTTP %d, want 200", resp.StatusCode)
	}
}

// TestDebugEventsRing asserts the bounded event log records scheduler
// transitions and memo outcomes, oldest first, with drop accounting.
func TestDebugEventsRing(t *testing.T) {
	_, ts, _ := newMemoService(t, Config{Seed: 7, EventLog: 64})
	body := `{"workload":"WC","seed":2,"config":{"pin":"none"}}`
	code, doc := postJob(t, ts, body)
	if code != http.StatusCreated {
		t.Fatalf("POST: HTTP %d", code)
	}
	waitDone(t, ts, int(doc["id"].(float64)))
	if code, _ := postJob(t, ts, body); code != http.StatusOK {
		t.Fatalf("repeat POST: HTTP %d", code)
	}

	_, events := getJSON(t, ts.URL+"/debug/events")
	if got := int(events["capacity"].(float64)); got != 64 {
		t.Fatalf("capacity = %d, want 64", got)
	}
	list, _ := events["events"].([]any)
	kinds := map[string]bool{}
	lastSeq := -1.0
	for _, raw := range list {
		ev := raw.(map[string]any)
		kinds[ev["kind"].(string)] = true
		seq := ev["seq"].(float64)
		if seq <= lastSeq {
			t.Fatalf("event seq %v not increasing after %v", seq, lastSeq)
		}
		lastSeq = seq
	}
	for _, want := range []string{"sched_queued", "sched_started", "sched_finished", "memo_hit"} {
		if !kinds[want] {
			t.Fatalf("event log missing kind %q; have %v", want, kinds)
		}
	}
}

// TestMetricsStrictAndHistograms asserts satellite 4 plus the tentpole
// histograms: the full /metrics exposition passes the strict checker and
// carries the lifecycle latency families and build info after jobs ran.
func TestMetricsStrictAndHistograms(t *testing.T) {
	_, ts, _ := newMemoService(t, Config{Seed: 13})
	body := `{"workload":"WC","seed":4,"config":{"pin":"none"}}`
	code, doc := postJob(t, ts, body)
	if code != http.StatusCreated {
		t.Fatalf("POST: HTTP %d", code)
	}
	id := int(doc["id"].(float64))
	waitDone(t, ts, id)
	if code, _ := postJob(t, ts, body); code != http.StatusOK {
		t.Fatalf("repeat POST: HTTP %d", code)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(b)
	if err := telemetry.CheckExposition([]byte(text)); err != nil {
		t.Fatalf("/metrics fails strict validation: %v", err)
	}
	for _, want := range []string{
		// A terminal job is already counted: the run and the hit.
		`ramr_job_e2e_seconds_count{workload="WC",engine="RAMR",priority="normal"} 2`,
		"# TYPE ramr_job_e2e_seconds histogram",
		"# TYPE ramr_job_queue_wait_seconds histogram",
		"# TYPE ramr_job_grant_alloc_seconds histogram",
		"# TYPE ramr_job_phase_seconds histogram",
		`ramr_job_phase_seconds_count{workload="WC",engine="RAMR",priority="normal",phase="map-combine"} 1`,
		"ramr_build_info{version=",
		"ramr_service_uptime_seconds",
		// One executed job, one memo hit: one input built.
		"# TYPE ramr_service_builds_total counter",
		"ramr_service_builds_total 1\n",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// TestStatsRuntimeSection asserts satellite 2: /stats carries the
// process-health section with build and heap figures.
func TestStatsRuntimeSection(t *testing.T) {
	_, ts, _ := newTestService(t, 0)
	_, doc := getJSON(t, ts.URL+"/stats")
	rt, _ := doc["runtime"].(map[string]any)
	if rt == nil {
		t.Fatalf("/stats has no runtime section: %v", doc)
	}
	if v, _ := rt["go_version"].(string); v == "" {
		t.Fatalf("runtime section missing go_version: %v", rt)
	}
	if g := rt["goroutines"].(float64); g < 1 {
		t.Fatalf("goroutines = %v", g)
	}
	if h := rt["heap_alloc_bytes"].(float64); h <= 0 {
		t.Fatalf("heap_alloc_bytes = %v", h)
	}
	if u := rt["uptime_seconds"].(float64); u < 0 {
		t.Fatalf("uptime_seconds = %v", u)
	}
}

// sharedLogSink multiplexes WithAttrs children into one record list.
type sharedLogSink struct {
	mu      sync.Mutex
	records []map[string]any
}

type sinkHandler struct {
	sink  *sharedLogSink
	attrs []slog.Attr
}

func (h *sinkHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h *sinkHandler) Handle(_ context.Context, r slog.Record) error {
	m := map[string]any{"msg": r.Message}
	for _, a := range h.attrs {
		m[a.Key] = a.Value.Any()
	}
	r.Attrs(func(a slog.Attr) bool {
		m[a.Key] = a.Value.Any()
		return true
	})
	h.sink.mu.Lock()
	h.sink.records = append(h.sink.records, m)
	h.sink.mu.Unlock()
	return nil
}

func (h *sinkHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &sinkHandler{sink: h.sink, attrs: append(append([]slog.Attr{}, h.attrs...), attrs...)}
}

func (h *sinkHandler) WithGroup(string) slog.Handler { return h }

func (s *sharedLogSink) find(msg string) map[string]any {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.records {
		if r["msg"] == msg {
			return r
		}
	}
	return nil
}

// TestServiceLogCorrelation asserts satellite 3: the service's lifecycle
// log lines carry job_id and content_digest correlation attributes.
func TestServiceLogCorrelation(t *testing.T) {
	sink := &sharedLogSink{}
	svc, err := New(Config{
		Machine: topology.HaswellServer(),
		Seed:    17,
		Logger:  slog.New(&sinkHandler{sink: sink}),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	code, doc := postJob(t, ts, `{"workload":"WC","seed":3,"config":{"pin":"none"}}`)
	if code != http.StatusCreated {
		t.Fatalf("POST: HTTP %d", code)
	}
	id := int(doc["id"].(float64))
	waitDone(t, ts, id)

	for _, msg := range []string{"job admitted", "job finished"} {
		rec := sink.find(msg)
		if rec == nil {
			t.Fatalf("no %q log line", msg)
		}
		if got, ok := rec["job_id"].(int64); !ok || int(got) != id {
			t.Fatalf("%q line job_id = %v, want %d", msg, rec["job_id"], id)
		}
		if d, _ := rec["content_digest"].(string); d == "" {
			t.Fatalf("%q line has no content_digest: %v", msg, rec)
		}
	}
}

// checkTimeline asserts the shape every trace document has, live or
// settled: thread-name metadata first, then non-decreasing ts.
func checkTimeline(t *testing.T, events []map[string]any) {
	t.Helper()
	inMeta, lastTs := true, -1.0
	for i, ev := range events {
		if ev["ph"] == "M" {
			if !inMeta {
				t.Fatalf("event %d: metadata after timeline events", i)
			}
			continue
		}
		inMeta = false
		ts := ev["ts"].(float64)
		if ts < lastTs {
			t.Fatalf("event %d (%v): ts %v < previous %v", i, ev["name"], ts, lastTs)
		}
		lastTs = ts
	}
}

// TestLiveTraceRaceFree polls a running job's trace — "live jobs serve the
// spans recorded so far" — under the race detector: no reader may touch a
// buffer a worker is still appending to, every document along the way is a
// well-formed timeline, and publishing lanes at worker exit loses nothing:
// the settled trace has a lane for every worker that did anything and one
// task span per task the telemetry counted.
func TestLiveTraceRaceFree(t *testing.T) {
	_, ts, _ := newTestService(t, 0)
	code, doc := postJob(t, ts, `{"workload":"WC","class":"large","config":{"pin":"none"}}`)
	if code != http.StatusCreated {
		t.Fatalf("POST: HTTP %d (%v)", code, doc)
	}
	id := int(doc["id"].(float64))
	deadline := time.Now().Add(60 * time.Second)
	for state := any("queued"); state != "done"; {
		if state == "canceled" || time.Now().After(deadline) {
			t.Fatalf("job %d reads %v", id, state)
		}
		_, events := fetchTrace(t, ts, id)
		checkTimeline(t, events)
		_, st := getJSON(t, fmt.Sprintf("%s/jobs/%d", ts.URL, id))
		state = st["state"]
	}

	_, events := fetchTrace(t, ts, id)
	checkTimeline(t, events)
	lane := map[float64]string{}
	lanes, tasks := map[string]bool{}, map[string]uint64{}
	for _, ev := range events {
		switch {
		case ev["ph"] == "M":
			name := ev["args"].(map[string]any)["name"].(string)
			lane[ev["tid"].(float64)], lanes[name] = name, true
		case ev["ph"] == "X" && ev["name"] == "task":
			tasks[lane[ev["tid"].(float64)]]++
		}
	}
	_, res := getJSON(t, fmt.Sprintf("%s/jobs/%d/result", ts.URL, id))
	workers := res["telemetry"].(map[string]any)["workers"].([]any)
	if len(workers) == 0 {
		t.Fatal("result carries no telemetry workers")
	}
	for _, raw := range workers {
		w := raw.(map[string]any)
		name := fmt.Sprintf("%s-%d", w["role"], int(w["id"].(float64)))
		nTasks, nBatches := uint64(w["tasks"].(float64)), uint64(w["batches"].(float64))
		if (nTasks > 0 || nBatches > 0) && !lanes[name] {
			t.Errorf("settled trace has no %s lane (worker ran %d tasks, %d batches); lanes %v", name, nTasks, nBatches, lanes)
		}
		if w["role"] == "mapper" && tasks[name] != nTasks {
			t.Errorf("%s: %d task spans in the settled trace, telemetry counted %d tasks", name, tasks[name], nTasks)
		}
	}
}
