package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ramr/internal/faultinject"
	"ramr/internal/sched"
	"ramr/internal/topology"
)

// newTestService builds a Service over a synthetic 56-CPU machine (the
// CI host has one CPU; pinning to absent CPUs is a no-op) and an
// observer asserting the budget invariant on every transition.
func newTestService(t *testing.T, maxQueued int) (*Service, *httptest.Server, *grantTracker) {
	t.Helper()
	tr := &grantTracker{}
	svc, err := New(Config{
		Machine:   topology.HaswellServer(),
		MaxQueued: maxQueued,
		Seed:      11,
		Observer:  tr.observe,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts, tr
}

// grantTracker records scheduler events and checks, on every
// transition, that the granted total never exceeds the budget and that
// concurrently running grants are disjoint.
type grantTracker struct {
	mu        sync.Mutex
	running   map[int][]int
	violation string
	maxInUse  int
}

func (g *grantTracker) observe(e sched.Event) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.running == nil {
		g.running = make(map[int][]int)
	}
	if e.InUse > g.maxInUse {
		g.maxInUse = e.InUse
	}
	switch e.Kind {
	case sched.EventStarted:
		for other, grant := range g.running {
			for _, c := range grant {
				for _, nc := range e.Grant {
					if c == nc && g.violation == "" {
						g.violation = fmt.Sprintf("CPU %d granted to jobs %d and %d", c, other, e.JobID)
					}
				}
			}
		}
		g.running[e.JobID] = e.Grant
	case sched.EventFinished:
		delete(g.running, e.JobID)
	}
}

func (g *grantTracker) check(t *testing.T, budget int) {
	t.Helper()
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.violation != "" {
		t.Fatalf("grant overlap: %s", g.violation)
	}
	if g.maxInUse > budget {
		t.Fatalf("granted total %d exceeded budget %d", g.maxInUse, budget)
	}
}

func postJob(t *testing.T, ts *httptest.Server, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decoding response (HTTP %d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, doc
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decoding %s (HTTP %d): %v", url, resp.StatusCode, err)
	}
	return resp.StatusCode, doc
}

func waitDone(t *testing.T, ts *httptest.Server, id int) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, doc := getJSON(t, fmt.Sprintf("%s/jobs/%d", ts.URL, id))
		if code != http.StatusOK {
			t.Fatalf("status for job %d: HTTP %d (%v)", id, code, doc)
		}
		switch doc["state"] {
		case "done", "canceled":
			return doc
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d still %v after 30s", id, doc["state"])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestConcurrentJobsOverHTTP is the e2e acceptance path: three
// mixed-priority jobs submitted over HTTP run on disjoint grants within
// the budget, finish, and serve phase times, queue stats and results.
func TestConcurrentJobsOverHTTP(t *testing.T) {
	svc, ts, tr := newTestService(t, 0)

	reqs := []string{
		`{"workload":"WC","priority":"high","max_cpus":8,"seed":1,"config":{"pin":"none"}}`,
		`{"workload":"HG","priority":"normal","max_cpus":8,"seed":2,"config":{"pin":"none"}}`,
		`{"workload":"LR","priority":"low","max_cpus":8,"seed":3,"engine":"phoenix"}`,
	}
	var ids []int
	for _, r := range reqs {
		code, doc := postJob(t, ts, r)
		if code != http.StatusCreated {
			t.Fatalf("POST /jobs: HTTP %d (%v)", code, doc)
		}
		ids = append(ids, int(doc["id"].(float64)))
	}

	for _, id := range ids {
		doc := waitDone(t, ts, id)
		if doc["state"] != "done" {
			t.Fatalf("job %d state %v", id, doc["state"])
		}
		if doc["error"] != nil {
			t.Fatalf("job %d error: %v", id, doc["error"])
		}
		if doc["phases"] == nil {
			t.Fatalf("job %d status missing phase times: %v", id, doc)
		}
		if doc["wall_ms"] == nil {
			t.Fatalf("job %d status missing wall time", id)
		}
		code, res := getJSON(t, fmt.Sprintf("%s/jobs/%d/result", ts.URL, id))
		if code != http.StatusOK {
			t.Fatalf("result for job %d: HTTP %d", id, code)
		}
		if res["pairs"] == nil || res["pairs"].(float64) <= 0 {
			t.Fatalf("job %d result has no pairs: %v", id, res)
		}
	}

	// The RAMR jobs carried live telemetry; /metrics aggregates them
	// under per-job labels.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	if !strings.Contains(text, `job="`+fmt.Sprint(ids[0])+`"`) {
		t.Fatalf("/metrics missing per-job labels:\n%.800s", text)
	}
	if strings.Count(text, "# TYPE ramr_workers") > 1 {
		t.Fatal("/metrics repeats metric family headers across jobs")
	}

	tr.check(t, svc.Scheduler().Budget())
	if leaked := faultinject.AwaitNoWorkers(2 * time.Second); len(leaked) > 0 {
		t.Fatalf("%d goroutines leaked:\n%s", len(leaked), strings.Join(leaked, "\n\n"))
	}
}

func TestAdmissionControl429(t *testing.T) {
	_, ts, _ := newTestService(t, 1)

	// Hold the whole budget with a slow synthetic job, fill the 1-deep
	// queue, then overflow: the third POST must get 429. The seeds
	// differ so the requests have distinct content digests — an
	// identical body would coalesce onto the queued job instead of
	// consuming an admission slot.
	slow := `{"workload":"SYNTH","min_cpus":56,"max_cpus":56,"config":{"pin":"none"},"synth":{"elements":400000,"map_intensity":300}}`
	tiny := `{"workload":"SYNTH","seed":1,"min_cpus":56,"config":{"pin":"none"},"synth":{"elements":1000,"keys":16}}`
	tiny2 := `{"workload":"SYNTH","seed":2,"min_cpus":56,"config":{"pin":"none"},"synth":{"elements":1000,"keys":16}}`
	code, doc := postJob(t, ts, slow)
	if code != http.StatusCreated {
		t.Fatalf("first POST: HTTP %d (%v)", code, doc)
	}
	first := int(doc["id"].(float64))
	code, doc = postJob(t, ts, tiny)
	if code != http.StatusCreated {
		t.Fatalf("second POST: HTTP %d (%v)", code, doc)
	}
	second := int(doc["id"].(float64))
	code, doc = postJob(t, ts, tiny2)
	if code != http.StatusTooManyRequests {
		t.Fatalf("third POST: HTTP %d (%v), want 429", code, doc)
	}
	for _, id := range []int{first, second} {
		if doc := waitDone(t, ts, id); doc["state"] != "done" {
			t.Fatalf("job %d state %v", id, doc["state"])
		}
	}
}

func TestCancelOverHTTP(t *testing.T) {
	_, ts, _ := newTestService(t, 0)
	code, doc := postJob(t, ts, `{"workload":"SYNTH","config":{"pin":"none"},"synth":{"elements":2000000,"map_intensity":400}}`)
	if code != http.StatusCreated {
		t.Fatalf("POST: HTTP %d", code)
	}
	id := int(doc["id"].(float64))
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/jobs/%d", ts.URL, id), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: HTTP %d", resp.StatusCode)
	}
	doc = waitDone(t, ts, id)
	if doc["state"] != "canceled" || doc["error"] == nil {
		t.Fatalf("cancelled running job settled state=%v error=%v", doc["state"], doc["error"])
	}
}

func TestBadRequests(t *testing.T) {
	_, ts, _ := newTestService(t, 0)
	for _, body := range []string{
		`{`,
		`{"workload":"NOPE"}`,
		`{"workload":"WC","engine":"cuda"}`,
		`{"workload":"WC","priority":"urgent"}`,
		`{"workload":"WC","min_cpus":500}`,
		`{"workload":"WC","unknown_field":1}`,
	} {
		code, _ := postJob(t, ts, body)
		if code != http.StatusBadRequest {
			t.Fatalf("POST %s: HTTP %d, want 400", body, code)
		}
	}
	if code, _ := getJSON(t, ts.URL+"/jobs/999"); code != http.StatusNotFound {
		t.Fatalf("GET unknown job: HTTP %d, want 404", code)
	}
}

// TestGracefulShutdown verifies Shutdown's contract: admission stops,
// already-accepted jobs (running and queued) complete, and their
// results stay retrievable.
func TestGracefulShutdown(t *testing.T) {
	svc, ts, _ := newTestService(t, 0)
	code, doc := postJob(t, ts, `{"workload":"WC","min_cpus":56,"config":{"pin":"none"}}`)
	if code != http.StatusCreated {
		t.Fatalf("POST: HTTP %d", code)
	}
	runningID := int(doc["id"].(float64))
	code, doc = postJob(t, ts, `{"workload":"HG","min_cpus":56,"config":{"pin":"none"}}`)
	if code != http.StatusCreated {
		t.Fatalf("POST: HTTP %d", code)
	}
	queuedID := int(doc["id"].(float64))

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if code, _ := postJob(t, ts, `{"workload":"WC"}`); code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown POST: HTTP %d, want 503", code)
	}
	for _, id := range []int{runningID, queuedID} {
		code, res := getJSON(t, fmt.Sprintf("%s/jobs/%d/result", ts.URL, id))
		if code != http.StatusOK {
			t.Fatalf("result for job %d after shutdown: HTTP %d (%v)", id, code, res)
		}
		if res["state"] != "done" || res["pairs"] == nil {
			t.Fatalf("job %d lost in shutdown: %v", id, res)
		}
	}
}

func TestListJobs(t *testing.T) {
	_, ts, _ := newTestService(t, 0)
	for i := 0; i < 2; i++ {
		// Distinct seeds: an identical second body is answered from the
		// memo cache (200, no new execution) if the first job has finished.
		code, _ := postJob(t, ts, fmt.Sprintf(`{"workload":"LR","seed":%d,"config":{"pin":"none"}}`, i+1))
		if code != http.StatusCreated {
			t.Fatalf("POST %d: HTTP %d", i, code)
		}
	}
	code, doc := getJSON(t, ts.URL+"/jobs")
	if code != http.StatusOK {
		t.Fatalf("GET /jobs: HTTP %d", code)
	}
	jobs := doc["jobs"].([]any)
	if len(jobs) != 2 {
		t.Fatalf("listed %d jobs, want 2", len(jobs))
	}
	for i := 0; i < 2; i++ {
		waitDone(t, ts, int(jobs[i].(map[string]any)["id"].(float64)))
	}
}

// TestStatsExposesJobBalance: /stats carries the scheduler occupancy
// document plus a per-job section with work-stealing counters (and the
// imbalance ratio when telemetry sampled any) once a job finished.
func TestStatsExposesJobBalance(t *testing.T) {
	_, ts, _ := newTestService(t, 0)
	code, doc := postJob(t, ts, `{"workload":"WC","config":{"pin":"none"}}`)
	if code != http.StatusCreated {
		t.Fatalf("POST: HTTP %d", code)
	}
	id := int(doc["id"].(float64))
	waitDone(t, ts, id)

	code, stats := getJSON(t, ts.URL+"/stats")
	if code != http.StatusOK {
		t.Fatalf("GET /stats: HTTP %d", code)
	}
	schedDoc, ok := stats["scheduler"].(map[string]any)
	if !ok || schedDoc["Budget"] == nil {
		t.Fatalf("/stats missing scheduler document: %v", stats)
	}
	jobs, ok := stats["jobs"].([]any)
	if !ok || len(jobs) != 1 {
		t.Fatalf("/stats jobs = %v, want one entry", stats["jobs"])
	}
	j := jobs[0].(map[string]any)
	if int(j["id"].(float64)) != id || j["state"] != "done" {
		t.Fatalf("/stats job entry: %v", j)
	}
	if _, ok := j["steal"].(map[string]any); !ok {
		t.Fatalf("/stats job entry missing steal counters: %v", j)
	}

	// The finished job's status document carries the same counters.
	_, st := getJSON(t, fmt.Sprintf("%s/jobs/%d", ts.URL, id))
	if _, ok := st["steal"].(map[string]any); !ok {
		t.Fatalf("job status missing steal counters: %v", st)
	}
}

// TestSkewAndStealOverlay: the API accepts a zipf skew for SYNTH inputs
// and a steal-policy overlay; a skewed job under "steal":"off" must
// finish with zero stolen tasks — every task a local take or one a combiner
// slot ran — and malformed values are rejected at submit.
func TestSkewAndStealOverlay(t *testing.T) {
	_, ts, _ := newTestService(t, 0)

	for _, bad := range []string{
		`{"workload":"SYNTH","synth":{"skew":0.5},"config":{"pin":"none"}}`,
		`{"workload":"SYNTH","config":{"pin":"none","steal":"sometimes"}}`,
	} {
		if code, _ := postJob(t, ts, bad); code != http.StatusBadRequest {
			t.Fatalf("POST %s: HTTP %d, want 400", bad, code)
		}
	}

	code, doc := postJob(t, ts,
		`{"workload":"SYNTH","config":{"pin":"none","steal":"off"},"synth":{"elements":20000,"skew":1.5}}`)
	if code != http.StatusCreated {
		t.Fatalf("POST: HTTP %d (%v)", code, doc)
	}
	id := int(doc["id"].(float64))
	waitDone(t, ts, id)

	_, st := getJSON(t, fmt.Sprintf("%s/jobs/%d", ts.URL, id))
	steal, ok := st["steal"].(map[string]any)
	if !ok {
		t.Fatalf("job status missing steal counters: %v", st)
	}
	for _, k := range []string{"socket_tasks", "remote_tasks", "remote_executed"} {
		if v := steal[k].(float64); v != 0 {
			t.Fatalf("steal-off job has %s = %v: %v", k, v, steal)
		}
	}
	help, ok := st["help"].(map[string]any)
	if !ok {
		t.Fatalf("job status missing help counters: %v", st)
	}
	if steal["local_tasks"].(float64)+help["tasks"].(float64) == 0 {
		t.Fatalf("steal-off job recorded no local takes and no helped tasks: %v %v", steal, help)
	}
}
