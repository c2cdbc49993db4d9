package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ramr/internal/obs"
	"ramr/internal/service"
	"ramr/internal/topology"
	"ramr/internal/workloads"
)

// newWorker boots one in-process ramrd-equivalent: a real service tier
// over a synthetic machine, served from an httptest listener.
func newWorker(t *testing.T) *httptest.Server {
	t.Helper()
	svc, err := service.New(service.Config{Machine: topology.HaswellServer(), Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// newCoordinator builds a Coordinator over the given worker URLs with
// test-speed retry knobs.
func newCoordinator(t *testing.T, shards int, urls ...string) *Coordinator {
	t.Helper()
	var specs []WorkerSpec
	for _, u := range urls {
		specs = append(specs, WorkerSpec{URL: u})
	}
	co, err := New(Config{
		Workers: specs,
		Shards:  shards,
		Retries: 3,
		Backoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return co
}

// singleNodeDigest runs req unsharded on the worker and returns the
// reference output digest and pair count.
func singleNodeDigest(t *testing.T, workerURL string, req *service.JobRequest) (string, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(workerURL+"/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		ID     int    `json:"id"`
		State  string `json:"state"`
		Error  string `json:"error"`
		Digest string `json:"digest"`
		Pairs  int    `json:"pairs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(60 * time.Second)
	for {
		r, err := http.Get(fmt.Sprintf("%s/jobs/%d/result", workerURL, doc.ID))
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode == http.StatusOK {
			if err := json.NewDecoder(r.Body).Decode(&doc); err != nil {
				t.Fatal(err)
			}
			r.Body.Close()
			if doc.State != "done" {
				t.Fatalf("reference job settled %q: %s", doc.State, doc.Error)
			}
			return doc.Digest, doc.Pairs
		}
		r.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("reference job did not finish in 60s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMergedDigestMatchesSingleNode is the acceptance path: a job
// sharded across two workers produces a merged result with the same
// output digest and pair count as the single-node run — for word count
// and histogram over real Table I inputs, and for uniform and skewed SYNTH —
// and every shard record says how long its worker spent building input.
func TestMergedDigestMatchesSingleNode(t *testing.T) {
	wa, wb := newWorker(t), newWorker(t)
	for _, tc := range []struct {
		app    string
		shards int
		skew   float64
	}{
		{"WC", 2, 0},
		{"WC", 7, 0}, // more shards than workers: round-robin stacking
		{"HG", 2, 0},
		{"HG", 3, 0},
		{"SYNTH", 2, 0},
		{"SYNTH", 3, 1.5},
	} {
		req := &service.JobRequest{Workload: tc.app, Seed: 7, MaxCPUs: 8}
		if tc.app == "SYNTH" {
			req.Synth = service.SynthParams{Elements: 20_000, Keys: 64, Skew: tc.skew}
		}
		wantDigest, wantPairs := singleNodeDigest(t, wa.URL, req)
		co := newCoordinator(t, tc.shards, wa.URL, wb.URL)
		res, err := co.Run(context.Background(), req, nil)
		if err != nil {
			t.Fatalf("%s x%d: %v", tc.app, tc.shards, err)
		}
		if res.Digest != wantDigest || res.Pairs != wantPairs {
			t.Fatalf("%s x%d: merged (%d pairs, %s) != single-node (%d pairs, %s)",
				tc.app, tc.shards, res.Pairs, res.Digest, wantPairs, wantDigest)
		}
		if len(res.PerShard) != tc.shards {
			t.Fatalf("%s: %d shard records, want %d", tc.app, len(res.PerShard), tc.shards)
		}
		seen := map[string]bool{}
		for _, sr := range res.PerShard {
			if sr.Worker == "" || sr.JobID == 0 || sr.BuildMS <= 0 {
				t.Fatalf("%s: shard %s has no dispatch record or no build time: %+v", tc.app, sr.Shard, sr)
			}
			seen[sr.Worker] = true
		}
		if tc.shards >= 2 && len(seen) < 2 {
			t.Fatalf("%s x%d: all shards landed on one worker: %v", tc.app, tc.shards, seen)
		}
	}
}

// TestShardMemoHits pins memo reuse across cluster jobs: re-running the
// same request answers every shard from the workers' caches.
func TestShardMemoHits(t *testing.T) {
	wa, wb := newWorker(t), newWorker(t)
	co := newCoordinator(t, 2, wa.URL, wb.URL)
	req := &service.JobRequest{Workload: "SYNTH", Seed: 3, MaxCPUs: 8,
		Synth: service.SynthParams{Elements: 20_000, Keys: 64}}
	first, err := co.Run(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	again, err := co.Run(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.Digest != first.Digest {
		t.Fatalf("repeat run digest %s != %s", again.Digest, first.Digest)
	}
	for _, sr := range again.PerShard {
		if !sr.Cached {
			t.Errorf("shard %s re-ran instead of hitting the worker memo: %+v", sr.Shard, sr)
		}
	}
	if hits := co.met.memoHits.Load(); hits < 2 {
		t.Errorf("memo hit counter %d, want >= 2", hits)
	}
}

// flakyWorker wraps a real worker and simulates a mid-shard death: the
// first shard submission is admitted and forwarded, then every result
// poll (and everything else) fails at the transport level — exactly what
// a killed process looks like to the coordinator.
type flakyWorker struct {
	backend *httptest.Server
	died    atomic.Bool
	posts   atomic.Int64
}

func (f *flakyWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.died.Load() {
		// A dead process: sever the connection mid-response.
		hj, ok := w.(http.Hijacker)
		if ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
				return
			}
		}
		panic("flakyWorker: cannot hijack")
	}
	if r.Method == http.MethodPost && r.URL.Path == "/jobs" {
		// Admit the shard for real, then die before it can be polled.
		f.posts.Add(1)
		f.died.Store(true)
	}
	f.proxy(w, r)
}

func (f *flakyWorker) proxy(w http.ResponseWriter, r *http.Request) {
	req, err := http.NewRequest(r.Method, f.backend.URL+r.URL.Path, r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	req.Header = r.Header
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	var buf [32 << 10]byte
	for {
		n, err := resp.Body.Read(buf[:])
		if n > 0 {
			w.Write(buf[:n])
		}
		if err != nil {
			return
		}
	}
}

// TestWorkerKilledMidShardReshards is the failure-path acceptance: a
// worker dies after admitting its shard; the coordinator marks it down,
// reshards onto the survivor, and the merged digest still equals the
// single-node run's.
func TestWorkerKilledMidShardReshards(t *testing.T) {
	healthy := newWorker(t)
	backend := newWorker(t)
	flaky := &flakyWorker{backend: backend}
	fts := httptest.NewServer(flaky)
	t.Cleanup(fts.Close)

	req := &service.JobRequest{Workload: "WC", Seed: 7, MaxCPUs: 8}
	wantDigest, wantPairs := singleNodeDigest(t, healthy.URL, req)

	co := newCoordinator(t, 2, healthy.URL, fts.URL)
	rec := obs.New("WC")
	res, err := co.Run(context.Background(), req, rec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest != wantDigest || res.Pairs != wantPairs {
		t.Fatalf("after reshard: merged (%d pairs, %s) != single-node (%d pairs, %s)",
			res.Pairs, res.Digest, wantPairs, wantDigest)
	}
	if flaky.posts.Load() == 0 {
		t.Fatal("the flaky worker never admitted a shard; the test exercised nothing")
	}
	resharded := false
	for _, sr := range res.PerShard {
		if sr.Resharded {
			resharded = true
			if sr.Worker != healthy.URL {
				t.Errorf("resharded shard %s completed on %s, want the survivor %s",
					sr.Shard, sr.Worker, healthy.URL)
			}
		}
	}
	if !resharded {
		t.Fatalf("no shard recorded a reshard: %+v", res.PerShard)
	}
	var downs int
	for _, ws := range co.Workers() {
		if ws.Down {
			downs++
		}
	}
	if downs != 1 {
		t.Errorf("%d workers marked down, want exactly the killed one", downs)
	}
	if co.met.reshards.Load() == 0 {
		t.Error("reshard counter not incremented")
	}
}

// impatientWorker fronts a real worker, recording every result request
// and, for a while after the first one, answering them with an immediate
// 202 — what a worker (or an intermediary) that does not honour ?wait=
// looks like.
type impatientWorker struct {
	proxy    *httputil.ReverseProxy
	earlyFor time.Duration

	mu      sync.Mutex
	first   time.Time // arrival of the first result request
	waits   []string  // the wait parameter of every result request
	early   int       // result requests cut short
	awaited int       // result requests passed on to the worker
}

func (iw *impatientWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/result") {
		iw.mu.Lock()
		if iw.first.IsZero() {
			iw.first = time.Now()
		}
		iw.waits = append(iw.waits, r.URL.Query().Get("wait"))
		cut := time.Since(iw.first) < iw.earlyFor
		if cut {
			iw.early++
		} else {
			iw.awaited++
		}
		iw.mu.Unlock()
		if cut {
			w.Header().Set(service.ProtoHeader, service.ProtoVersion)
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"state":"running"}`)
			return
		}
	}
	iw.proxy.ServeHTTP(w, r)
}

// TestShardAwaitedByCompletion pins the coordinator's side of ?wait=:
// every result request asks the worker to wait (half the per-exchange
// timeout), a worker that honours it is asked once per shard job, and an
// early 202 is retried no faster than the turn-around floor — never in a
// spin.
func TestShardAwaitedByCompletion(t *testing.T) {
	backend := newWorker(t)
	target, err := url.Parse(backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	const earlyFor = 6 * minResultTurnaround
	iw := &impatientWorker{proxy: httputil.NewSingleHostReverseProxy(target), earlyFor: earlyFor}
	front := httptest.NewServer(iw)
	t.Cleanup(front.Close)

	req := &service.JobRequest{Workload: "WC", Seed: 21, MaxCPUs: 8,
		Config: service.ConfigOverlay{Pin: "none"}}
	wantDigest, _ := singleNodeDigest(t, backend.URL, req)
	co := newCoordinator(t, 1, front.URL)
	res, err := co.Run(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest != wantDigest {
		t.Fatalf("digest %s, single-node %s", res.Digest, wantDigest)
	}

	iw.mu.Lock()
	defer iw.mu.Unlock()
	for i, w := range iw.waits {
		if w != (DefaultRequestTimeout / 2).String() {
			t.Fatalf("result request %d carried wait=%q, want %s", i, w, DefaultRequestTimeout/2)
		}
	}
	// One turn of the loop per floor while the 202s last (a spin would
	// make thousands), then a single request the worker itself answers.
	if max := int(earlyFor/minResultTurnaround) + 1; iw.early < 1 || iw.early > max {
		t.Fatalf("%d result requests during %v of early 202s, want 1..%d", iw.early, earlyFor, max)
	}
	if iw.awaited != 1 {
		t.Fatalf("%d result requests reached the worker, want exactly one awaited request", iw.awaited)
	}
}

// saturatedWorker answers every admission with 429 but probes honestly.
type saturatedWorker struct{ backend *httptest.Server }

func (s *saturatedWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && r.URL.Path == "/jobs" {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"admission queue full"}`)
		return
	}
	(&flakyWorker{backend: s.backend}).proxy(w, r)
}

// TestSaturatedWorkerReplacement pins the 429 path: a saturated worker
// is skipped for the attempt (not marked down) and its shards re-place
// onto the next candidate in link-cost order.
func TestSaturatedWorkerReplacement(t *testing.T) {
	healthy := newWorker(t)
	backend := newWorker(t)
	sts := httptest.NewServer(&saturatedWorker{backend: backend})
	t.Cleanup(sts.Close)

	req := &service.JobRequest{Workload: "SYNTH", Seed: 5, MaxCPUs: 8,
		Synth: service.SynthParams{Elements: 10_000, Keys: 32}}
	co := newCoordinator(t, 2, sts.URL, healthy.URL)
	res, err := co.Run(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	replaced := 0
	for _, sr := range res.PerShard {
		replaced += sr.Replaced
		if sr.Worker != healthy.URL {
			t.Errorf("shard %s completed on the saturated worker", sr.Shard)
		}
	}
	if replaced == 0 {
		t.Fatalf("no shard recorded a 429 re-placement: %+v", res.PerShard)
	}
	for _, ws := range co.Workers() {
		if ws.Down {
			t.Errorf("saturated worker %s marked down; 429 is healthy backpressure", ws.URL)
		}
	}
}

// TestProbeRejectsMismatchedWorker pins the compatibility gate: a worker
// speaking another protocol generation fails the job with a hard error
// naming the worker, before any shard is dispatched. The generation-2 case
// is the one that matters since the generators became split-addressable: a
// generation-2 worker derives different bytes from the same seed, and its
// partial would merge into a plausible, wrong digest.
func TestProbeRejectsMismatchedWorker(t *testing.T) {
	gen2 := `{"capabilities":{"proto":"2","features":["result-wait"],"shard_apps":["HG","SYNTH","WC"]}}`
	for _, tc := range []struct {
		name, header, stats, want string
	}{
		{"no header, no capabilities", "", `{"role":"worker"}`, `protocol ""`},
		{"worker answers proto 2", "2", gen2, `protocol "2"`},
		{"current header over generation-2 capabilities", service.ProtoVersion, gen2, `capabilities.proto "2"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			healthy := newWorker(t)
			var posts atomic.Int32
			old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodPost {
					posts.Add(1)
				}
				if tc.header != "" {
					w.Header().Set(service.ProtoHeader, tc.header)
				}
				fmt.Fprint(w, tc.stats)
			}))
			t.Cleanup(old.Close)

			co := newCoordinator(t, 2, healthy.URL, old.URL)
			_, err := co.Run(context.Background(), &service.JobRequest{Workload: "WC"}, nil)
			if err == nil {
				t.Fatal("dispatch through a protocol-mismatched worker should fail")
			}
			if !strings.Contains(err.Error(), old.URL) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("mismatch error should name the worker and contain %q: %v", tc.want, err)
			}
			if n := posts.Load(); n != 0 {
				t.Fatalf("%d shard submissions reached the mismatched worker", n)
			}
		})
	}
}

// TestProbeSurvivesUnreachableWorker: a worker that is down (vs
// incompatible) is skipped, and the job completes on the rest.
func TestProbeSurvivesUnreachableWorker(t *testing.T) {
	healthy := newWorker(t)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // nothing listens here anymore

	req := &service.JobRequest{Workload: "SYNTH", Seed: 2, MaxCPUs: 8,
		Synth: service.SynthParams{Elements: 5_000, Keys: 16}}
	co := newCoordinator(t, 2, healthy.URL, deadURL)
	res, err := co.Run(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range res.PerShard {
		if sr.Worker != healthy.URL {
			t.Errorf("shard %s placed on the dead worker", sr.Shard)
		}
	}
}

// TestValidateRequest pins the submission gate.
func TestValidateRequest(t *testing.T) {
	co := newCoordinator(t, 2, "http://127.0.0.1:1")
	for _, tc := range []struct {
		name string
		req  service.JobRequest
		want string
	}{
		{"empty", service.JobRequest{}, "required"},
		{"not shardable", service.JobRequest{Workload: "KM"}, "not shardable"},
		{"stream", service.JobRequest{Workload: "WC",
			Stream: &service.StreamRequest{}}, "streaming"},
		{"client shard", service.JobRequest{Workload: "WC",
			Shard: &workloads.ShardSpec{Index: 0, Count: 2}}, "coordinator-assigned"},
	} {
		_, err := co.Run(context.Background(), &tc.req, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestPlacementOrder pins the link-cost victim order: home first, then
// same-cost workers in ring order, then farther tiers.
func TestPlacementOrder(t *testing.T) {
	co, err := New(Config{Workers: []WorkerSpec{
		{URL: "http://a", Cost: 0},
		{URL: "http://b", Cost: 0},
		{URL: "http://c", Cost: 2},
		{URL: "http://d", Cost: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for shard, want := range map[int][]int{
		0: {0, 1, 2, 3}, // home 0: peer 1 (same switch) before tier-2
		1: {1, 0, 2, 3},
		2: {2, 3, 0, 1}, // home 2: peer 3, then the tier-0 switch
		3: {3, 2, 0, 1},
		4: {0, 1, 2, 3}, // wraps round-robin
	} {
		got := co.placement(shard)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("placement(%d) = %v, want %v", shard, got, want)
		}
	}
	// Determinism: identical calls agree.
	if a, b := co.placement(2), co.placement(2); fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("placement not deterministic: %v vs %v", a, b)
	}
}

func TestNewValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"no workers", Config{}},
		{"bad scheme", Config{Workers: []WorkerSpec{{URL: "ftp://x"}}}},
		{"duplicate", Config{Workers: []WorkerSpec{
			{URL: "http://a"}, {URL: "http://a/"}}}},
		{"negative cost", Config{Workers: []WorkerSpec{{URL: "http://a", Cost: -1}}}},
		{"negative shards", Config{Workers: []WorkerSpec{{URL: "http://a"}}, Shards: -1}},
	} {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
}
