package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ramr/internal/sched"
	"ramr/internal/telemetry"
	"ramr/internal/topology"
)

// newMemoService is newTestService with memo/retention knobs and an
// EventStarted counter, for the dedup tests.
func newMemoService(t *testing.T, cfg Config) (*Service, *httptest.Server, *atomic.Int64) {
	t.Helper()
	var starts atomic.Int64
	inner := cfg.Observer
	cfg.Observer = func(e sched.Event) {
		if e.Kind == sched.EventStarted {
			starts.Add(1)
		}
		if inner != nil {
			inner(e)
		}
	}
	if cfg.Machine == nil {
		cfg.Machine = topology.HaswellServer()
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts, &starts
}

func deleteJob(t *testing.T, ts *httptest.Server, id int) (int, map[string]any) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/jobs/%d", ts.URL, id), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var doc map[string]any
	if len(body) > 0 {
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("DELETE /jobs/%d: HTTP %d, undecodable body %q", id, resp.StatusCode, body)
		}
	}
	return resp.StatusCode, doc
}

func memoSection(t *testing.T, ts *httptest.Server) map[string]any {
	t.Helper()
	code, doc := getJSON(t, ts.URL+"/stats")
	if code != http.StatusOK {
		t.Fatalf("/stats: HTTP %d", code)
	}
	m, ok := doc["memo"].(map[string]any)
	if !ok {
		t.Fatalf("/stats missing memo section: %v", doc)
	}
	return m
}

// TestMemoHitDeterministic submits the same WC job twice per engine: the
// second POST must be a 200 cache hit carrying the original executor's
// result, including a bit-identical output digest; the two engines must
// not share cache lines (their content digests differ).
func TestMemoHitDeterministic(t *testing.T) {
	_, ts, starts := newMemoService(t, Config{Seed: 3})

	digests := map[string]string{}
	for _, engine := range []string{"ramr", "phoenix"} {
		body := fmt.Sprintf(`{"workload":"WC","engine":%q,"seed":42,"config":{"pin":"none"}}`, engine)
		code, doc := postJob(t, ts, body)
		if code != http.StatusCreated {
			t.Fatalf("[%s] first POST: HTTP %d (%v)", engine, code, doc)
		}
		id := int(doc["id"].(float64))
		waitDone(t, ts, id)
		_, res := getJSON(t, fmt.Sprintf("%s/jobs/%d/result", ts.URL, id))
		wantOut, _ := res["digest"].(string)
		if wantOut == "" {
			t.Fatalf("[%s] result has no output digest: %v", engine, res)
		}

		code, hit := postJob(t, ts, body)
		if code != http.StatusOK {
			t.Fatalf("[%s] repeat POST: HTTP %d (%v), want 200", engine, code, hit)
		}
		if hit["cached"] != true {
			t.Fatalf("[%s] repeat POST not marked cached: %v", engine, hit)
		}
		if got := int(hit["executed_by"].(float64)); got != id {
			t.Fatalf("[%s] cache hit names executor %d, executed job was %d", engine, got, id)
		}
		if got := int(hit["id"].(float64)); got == id {
			t.Fatalf("[%s] cache hit reused the executor's id %d; want its own record", engine, got)
		}
		if got, _ := hit["digest"].(string); got != wantOut {
			t.Fatalf("[%s] cached output digest %q != executed %q", engine, got, wantOut)
		}
		if hit["state"] != "done" {
			t.Fatalf("[%s] cached doc state %v", engine, hit["state"])
		}
		cd, _ := hit["content_digest"].(string)
		if cd == "" {
			t.Fatalf("[%s] cache hit missing content_digest", engine)
		}
		digests[engine] = cd
	}
	if digests["ramr"] == digests["phoenix"] {
		t.Fatal("ramr and phoenix share a content digest; engine must be part of the identity")
	}
	if got := starts.Load(); got != 2 {
		t.Fatalf("%d executions for 4 submissions, want 2", got)
	}
	m := memoSection(t, ts)
	if m["hits"].(float64) != 2 || m["misses"].(float64) != 2 {
		t.Fatalf("memo counters hits=%v misses=%v, want 2/2", m["hits"], m["misses"])
	}
}

// TestCoalescingExactlyOnce fires N identical submissions concurrently:
// exactly one scheduler execution — and one input build — may happen;
// every other caller must be
// answered by coalescing onto the in-flight leader or by the memo cache,
// and all of them converge to the same finished result.
func TestCoalescingExactlyOnce(t *testing.T) {
	_, ts, starts := newMemoService(t, Config{Seed: 5, MaxQueued: 1})

	const n = 8
	body := `{"workload":"SYNTH","seed":9,"config":{"pin":"none"},"synth":{"elements":600000,"map_intensity":200}}`
	type reply struct {
		code int
		doc  map[string]any
	}
	replies := make([]reply, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, doc := postJob(t, ts, body)
			replies[i] = reply{code, doc}
		}(i)
	}
	wg.Wait()

	var leaders, followers, hits int
	for _, r := range replies {
		switch {
		case r.code == http.StatusOK && r.doc["cached"] == true:
			hits++
		case r.code == http.StatusCreated && r.doc["coalesced"] == true:
			followers++
		case r.code == http.StatusCreated:
			leaders++
		default:
			t.Fatalf("unexpected reply HTTP %d: %v", r.code, r.doc)
		}
	}
	if leaders != 1 || leaders+followers+hits != n {
		t.Fatalf("leaders=%d followers=%d hits=%d of %d, want exactly 1 leader", leaders, followers, hits, n)
	}

	// Every record (leader and followers) settles to done with a result.
	for _, r := range replies {
		if r.doc["cached"] == true {
			continue
		}
		id := int(r.doc["id"].(float64))
		doc := waitDone(t, ts, id)
		if doc["state"] != "done" {
			t.Fatalf("job %d state %v", id, doc["state"])
		}
		if doc["wall_ms"] == nil {
			t.Fatalf("job %d finished without a result summary: %v", id, doc)
		}
	}
	if got := starts.Load(); got != 1 {
		t.Fatalf("%d executions for %d identical submissions, want 1", got, n)
	}
	m := memoSection(t, ts)
	if got := m["builds"].(float64); got != 1 {
		t.Fatalf("%v inputs built for %d identical submissions, want 1", got, n)
	}
	if got := m["coalesced"].(float64) + m["hits"].(float64); got != n-1 {
		t.Fatalf("coalesced+hits = %v, want %d", got, n-1)
	}
}

// TestFollowerCancelDetaches covers the waiter-aware DELETE semantics: a
// follower's DELETE removes only its own record and the shared execution
// keeps running for the leader; the leader's own DELETE (now the last
// waiter) cancels it for real.
func TestFollowerCancelDetaches(t *testing.T) {
	_, ts, _ := newMemoService(t, Config{Seed: 7})

	body := `{"workload":"SYNTH","config":{"pin":"none"},"synth":{"elements":2000000,"map_intensity":400}}`
	code, doc := postJob(t, ts, body)
	if code != http.StatusCreated {
		t.Fatalf("leader POST: HTTP %d (%v)", code, doc)
	}
	leader := int(doc["id"].(float64))
	code, doc = postJob(t, ts, body)
	if code != http.StatusCreated || doc["coalesced"] != true {
		t.Fatalf("follower POST: HTTP %d coalesced=%v (leader finished too fast?)", code, doc["coalesced"])
	}
	follower := int(doc["id"].(float64))
	if doc["waiters"].(float64) < 2 {
		t.Fatalf("follower doc waiters=%v, want >= 2", doc["waiters"])
	}

	if code, _ := deleteJob(t, ts, follower); code != http.StatusNoContent {
		t.Fatalf("DELETE follower: HTTP %d", code)
	}
	if code, _ := getJSON(t, fmt.Sprintf("%s/jobs/%d", ts.URL, follower)); code != http.StatusNotFound {
		t.Fatalf("detached follower still retained: HTTP %d", code)
	}
	// The leader must not have been cancelled by the follower's exit.
	code, doc = getJSON(t, fmt.Sprintf("%s/jobs/%d", ts.URL, leader))
	if code != http.StatusOK || doc["state"] == "canceled" {
		t.Fatalf("leader after follower DELETE: HTTP %d state %v", code, doc["state"])
	}

	// Last waiter leaving cancels the execution.
	if code, _ := deleteJob(t, ts, leader); code != http.StatusNoContent {
		t.Fatalf("DELETE leader: HTTP %d", code)
	}
	doc = waitDone(t, ts, leader)
	if doc["state"] != "canceled" && doc["state"] != "done" {
		t.Fatalf("leader settled as %v", doc["state"])
	}
}

// TestCancelFinished409 asserts satellite 2: DELETE on a finished job is
// a 409 Conflict naming the terminal state, and it removes the retained
// record (a second DELETE is 404).
func TestCancelFinished409(t *testing.T) {
	_, ts, _ := newMemoService(t, Config{Seed: 11})
	code, doc := postJob(t, ts, `{"workload":"SYNTH","config":{"pin":"none"},"synth":{"elements":1000,"keys":16}}`)
	if code != http.StatusCreated {
		t.Fatalf("POST: HTTP %d", code)
	}
	id := int(doc["id"].(float64))
	waitDone(t, ts, id)

	code, doc = deleteJob(t, ts, id)
	if code != http.StatusConflict {
		t.Fatalf("DELETE finished job: HTTP %d (%v), want 409", code, doc)
	}
	if doc["state"] != "done" {
		t.Fatalf("409 body missing terminal state: %v", doc)
	}
	if code, _ = deleteJob(t, ts, id); code != http.StatusNotFound {
		t.Fatalf("second DELETE: HTTP %d, want 404", code)
	}
}

// TestEvictionBoundOverHTTP runs distinct jobs against a tiny cache
// bound and asserts the byte accounting holds end-to-end: evictions are
// counted and the cached footprint never exceeds the bound.
func TestEvictionBoundOverHTTP(t *testing.T) {
	const bound = 8 << 10
	_, ts, _ := newMemoService(t, Config{Seed: 13, CacheMaxBytes: bound})
	for seed := 0; seed < 6; seed++ {
		body := fmt.Sprintf(`{"workload":"SYNTH","seed":%d,"config":{"pin":"none"},"synth":{"elements":2000,"keys":64}}`, seed)
		code, doc := postJob(t, ts, body)
		if code != http.StatusCreated {
			t.Fatalf("POST seed %d: HTTP %d (%v)", seed, code, doc)
		}
		waitDone(t, ts, int(doc["id"].(float64)))
	}
	m := memoSection(t, ts)
	if got := int64(m["cached_bytes"].(float64)); got > bound {
		t.Fatalf("cached_bytes %d exceeds bound %d", got, bound)
	}
	if m["max_bytes"].(float64) != bound {
		t.Fatalf("max_bytes = %v, want %d", m["max_bytes"], bound)
	}
	if m["evictions"].(float64) == 0 && m["cached_entries"].(float64) == 6 {
		t.Fatal("six results fit an 8 KiB bound with no evictions; sizing is broken")
	}
}

// readMetrics GETs /metrics, checks the exposition strictly, and returns
// its text and its samples keyed by series (name plus label set).
func readMetrics(url string) (string, map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return "", nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", nil, err
	}
	if err := telemetry.CheckExposition(body); err != nil {
		return "", nil, fmt.Errorf("/metrics fails strict validation: %w", err)
	}
	samples := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return "", nil, fmt.Errorf("sample %q: %w", line, err)
		}
		samples[line[:i]] = v
	}
	return string(body), samples, nil
}

func scrapeMetrics(t *testing.T, ts *httptest.Server) (string, map[string]float64) {
	t.Helper()
	text, samples, err := readMetrics(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return text, samples
}

// noJobLabel fails on any series labelled by job: /metrics states process
// numbers, and a job's own are in its document.
func noJobLabel(t *testing.T, samples map[string]float64) {
	t.Helper()
	for series := range samples {
		if strings.Contains(series, "{job=") || strings.Contains(series, ",job=") {
			t.Fatalf("/metrics carries a job label: %s", series)
		}
	}
}

// TestDeleteUnregistersMetrics is the leak regression test: /metrics has
// no per-job series to leak, and deleting a finished job's record leaves
// its workload's counters and the service-level families as they were.
func TestDeleteUnregistersMetrics(t *testing.T) {
	_, ts, _ := newMemoService(t, Config{Seed: 17})
	code, doc := postJob(t, ts, `{"workload":"SYNTH","config":{"pin":"none"},"synth":{"elements":1000,"keys":16}}`)
	if code != http.StatusCreated {
		t.Fatalf("POST: HTTP %d", code)
	}
	id := int(doc["id"].(float64))
	waitDone(t, ts, id)

	tasks := `ramr_job_tasks_total{workload="SYNTH",engine="RAMR",priority="normal"}`
	_, before := scrapeMetrics(t, ts)
	noJobLabel(t, before)
	if before[tasks] == 0 {
		t.Fatalf("/metrics has no %s after a SYNTH job", tasks)
	}
	if code, _ := deleteJob(t, ts, id); code != http.StatusConflict {
		t.Fatalf("DELETE finished job: HTTP %d", code)
	}
	text, after := scrapeMetrics(t, ts)
	noJobLabel(t, after)
	if after[tasks] != before[tasks] {
		t.Fatalf("%s = %v after delete, %v before: the record took its counts along", tasks, after[tasks], before[tasks])
	}
	for _, family := range []string{"ramr_memo_hits_total", "ramr_memo_cached_bytes", "ramr_service_jobs_retained"} {
		if !strings.Contains(text, family) {
			t.Fatalf("/metrics missing service family %s after delete", family)
		}
	}
}

// jobCounterSums adds a job document's counts, section by section, under
// the ramr_job_*_total series they feed.
func jobCounterSums(sum map[string]float64, res map[string]any) {
	tel := res["telemetry"].(map[string]any)["totals"].(map[string]any)
	queue := res["queue"].(map[string]any)
	steal := res["steal"].(map[string]any)
	for family, v := range map[string]any{
		"pairs_emitted":       tel["pairs_emitted"],
		"pairs_combined":      tel["pairs_combined"],
		"tasks":               tel["tasks"],
		"batches":             queue["BatchCalls"],
		"failed_pushes":       queue["FailedPush"],
		"sleep_microseconds":  queue["SleepMicros"],
		"remote_executed":     steal["remote_executed"],
		"steal_batches_local": steal["local_batches"], "steal_tasks_local": steal["local_tasks"],
		"steal_batches_socket": steal["socket_batches"], "steal_tasks_socket": steal["socket_tasks"],
		"steal_batches_remote": steal["remote_batches"], "steal_tasks_remote": steal["remote_tasks"],
	} {
		sum[family] += v.(float64)
	}
}

// TestRetentionBound soaks the registry: many distinct finished jobs must
// not grow the record map or the /metrics exposition. The exposition is
// bounded by label sets, not jobs: the series count after the first job
// equals the count after 3 × retain jobs of the same label set. A scraper
// runs through the soak: every exposition passes the strict checker and
// no counter ever falls, not when a live ledger settles into its label
// set's books; at the end the counters equal the sum of the settled
// documents, retired ones included.
func TestRetentionBound(t *testing.T) {
	const retain = 3
	_, ts, _ := newMemoService(t, Config{Seed: 19, RetainFinished: retain})

	stop, scraped := make(chan struct{}), make(chan error, 1)
	go func() {
		prev := map[string]float64{}
		for n := 0; ; n++ {
			_, samples, err := readMetrics(ts.URL)
			for series, v := range samples {
				if strings.HasPrefix(series, "ramr_job_") && strings.Contains(series, "_total{") && v < prev[series] {
					err = fmt.Errorf("scrape %d: %s fell from %v to %v", n, series, prev[series], v)
				}
			}
			if err != nil {
				scraped <- err
				return
			}
			prev = samples
			select {
			case <-stop:
				scraped <- nil
				return
			default:
			}
		}
	}()

	want := map[string]float64{}
	var firstID, first int
	for seed := 0; seed < 3*retain; seed++ {
		body := fmt.Sprintf(`{"workload":"SYNTH","seed":%d,"config":{"pin":"none"},"synth":{"elements":20000,"keys":16}}`, seed)
		code, doc := postJob(t, ts, body)
		if code != http.StatusCreated {
			t.Fatalf("POST seed %d: HTTP %d (%v)", seed, code, doc)
		}
		id := int(doc["id"].(float64))
		jobCounterSums(want, awaitResult(t, ts, id))
		if seed == 0 {
			firstID = id
			_, samples := scrapeMetrics(t, ts)
			first = len(samples)
		}
	}
	close(stop)
	if err := <-scraped; err != nil {
		t.Fatal(err)
	}
	_, samples := scrapeMetrics(t, ts)
	noJobLabel(t, samples)
	if len(samples) != first {
		t.Fatalf("/metrics has %d series after %d jobs, %d after the first: the exposition grows with jobs served", len(samples), 3*retain, first)
	}
	got := map[string]float64{}
	for series, v := range samples {
		name, labels, _ := strings.Cut(series, "{")
		family, job := strings.CutPrefix(name, "ramr_job_")
		family, total := strings.CutSuffix(family, "_total")
		if !job || !total {
			continue
		}
		if _, class, ok := strings.Cut(labels, `class="`); ok {
			family += "_" + strings.TrimSuffix(class, `"}`)
		}
		got[family] += v
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ramr_job_*_total counters\n  %v\nwant the settled documents' sums\n  %v", got, want)
	}
	if got["tasks"] == 0 || got["pairs_emitted"] == 0 {
		t.Fatalf("counters read no work: %v", got)
	}

	if code, _ := fetchTrace(t, ts, firstID); code != http.StatusNotFound {
		t.Fatalf("trace of evicted job %d: HTTP %d, want 404", firstID, code)
	}
	code, doc := getJSON(t, ts.URL+"/jobs")
	if code != http.StatusOK {
		t.Fatalf("GET /jobs: HTTP %d", code)
	}
	if jobs := doc["jobs"].([]any); len(jobs) > retain {
		t.Fatalf("%d records retained, bound is %d", len(jobs), retain)
	}
	m := memoSection(t, ts)
	if got := int(m["retained_jobs"].(float64)); got > retain {
		t.Fatalf("/stats retained_jobs %d exceeds bound %d", got, retain)
	}
}
