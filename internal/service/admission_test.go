package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ramr/internal/faultinject"
	"ramr/internal/topology"
)

// goldenDigests pins the canonical content digest: each row is a POST
// /jobs body and the digest the pre-split buildJob rendered for it at
// the parent commit (996097d), generated there before resolve existed.
// Memo keys, shard-level hits across a rolling upgrade and every logged
// content_digest depend on these bytes not moving.
var goldenDigests = []struct{ body, digest string }{
	{`{"workload":"WC"}`, "46f7304690baf9f4bd71795fe973c04d0c07d4bce6f920f33c6647fda7ca75dc"},
	{`{"workload":"wc","platform":"hwl","class":"small","engine":"ramr","priority":"high","min_cpus":1,"max_cpus":2}`, "46f7304690baf9f4bd71795fe973c04d0c07d4bce6f920f33c6647fda7ca75dc"},
	{`{"workload":"WC","seed":42,"config":{"pin":"none"}}`, "779b055602ae94fc8c6d4e8cb28768355aa229c3a95be861fcb28497446f14c5"},
	{`{"workload":"WC","container":"hash","seed":7}`, "23898730fcf7f650311e9ddd7c017c3c17ce622a56bcd6638f2b9e81d2794f27"},
	{`{"workload":"WC","platform":"phi","class":"medium"}`, "5c0901cacad40a0bc127c268b31ddde026b3f292d2f3ab932efae41074c96733"},
	{`{"workload":"HG"}`, "23aa24e6320d86ef8eca498caa01045dad201a5cf9fbaaedf524f45eb8dfa5fc"},
	{`{"workload":"HG","class":"large","container":"fixedarray"}`, "97e762ea17b6cea6837cd2af19f6ea8b0743ee6e0912bb078bc32f120676052f"},
	{`{"workload":"LR","seed":3}`, "be34bac2ded933a9f20bac1137c8734a7aeefe097fa48d8d8cbc3dc9f535ccb4"},
	{`{"workload":"KM","engine":"phoenix"}`, "b543506c617b4e5badd5d86a28bd59a47aec934139ecf4b8635865e7fbb38e5d"},
	{`{"workload":"MM","seed":-5}`, "9585dc758b001a478c218a8a1cbac4b76c9033f6032ada5111aeae002a61a6d0"},
	{`{"workload":"WC","seed":7,"shard":{"index":0,"count":2}}`, "b2795df7c04e45b3271d4b24720dd939ee38720122d9c9c380534f14cd39062a"},
	{`{"workload":"WC","seed":7,"shard":{"index":1,"count":2}}`, "ab56959ca49442aaa575b458f750b17547bd49dfe6b89c61e1fc70d478ef68bb"},
	{`{"workload":"HG","shard":{"index":2,"count":3}}`, "b6bc793f96332355962294dbbfdc1777b1206b83f1701abe4f0ec40deae15bb5"},
	{`{"workload":"SYNTH"}`, "01451b4dfb04fd23826320a77b80240667363157674991c8d3d763ea904320fe"},
	{`{"workload":"SYNTH","synth":{"elements":200000,"keys":1024,"map_kind":"cpu","map_intensity":60,"combine_kind":"memory","combine_intensity":20}}`, "01451b4dfb04fd23826320a77b80240667363157674991c8d3d763ea904320fe"},
	{`{"workload":"SYNTH","seed":9,"synth":{"elements":4096,"keys":64,"skew":1.5}}`, "186c8c670057385065573dfd8ad67f91520fb92914e7f458ab6b114a28c7ef2b"},
	{`{"workload":"SYNTH","synth":{"map_kind":"memory","combine_kind":"cpu","combine_intensity":5}}`, "ce510ef88f559e6776eb0e6a10b234ad11444f4dc6976dda7cab118bd83d75b6"},
	{`{"workload":"SYNTH","seed":9,"synth":{"elements":4096},"shard":{"index":0,"count":4}}`, "fdc5b9d41fcdb246d5f4afba39e1bdc5e9311cfaaae4764af962b1a3e87e7daf"},
	{`{"workload":"SYNTH","config":{"mappers":2,"combiners":1,"ratio":3,"task_size":4,"queue_capacity":1024,"batch_size":100,"emit_batch":16,"pin":"none","steal":"off"}}`, "90fb572f0c92996ee9e9ef04736e6a837ba31695e71fd1738ddfaf6ee6d127d0"},
	{`{"workload":"SYNTH","config":{"ratio":2,"task_size":1,"queue_capacity":32768,"batch_size":1000,"emit_batch":64}}`, "5bbb3cf660c88f6f26a12ec91b01fe4914226ca795b9bf8794d8cc6bb51a40f7"},
	{`{"workload":"SYNTH","stream":{"window":1}}`, "7176ccfe4020723ae91777eae0c743122f98f9daeff2c211fac9b426b61b58c5"},
	{`{"workload":"SYNTH","stream":{"window":4,"slide":2,"lateness":1,"max_pending":8}}`, "8e4c7922ab3060b2564cb3dea5e6ae3d3e48964eb13e31eee9f85e0514fe1d23"},
	// A WC stream without a container runs the growing hash table since
	// a window may see any vocabulary, so it is the computation — and has
	// the digest — of the row below; it read 4fefdcbe… while it ran the
	// fixed-size table.
	{`{"workload":"WC","stream":{"window":10,"max_pending":1024}}`, "67e3e0bde307c0277abf69978e6e8c17a10a3d4e51bd73734594605af8283c3b"},
	{`{"workload":"WC","container":"hash","stream":{"window":10}}`, "67e3e0bde307c0277abf69978e6e8c17a10a3d4e51bd73734594605af8283c3b"},
}

func decodeRequest(t *testing.T, body string) *JobRequest {
	t.Helper()
	req, err := decodeJobRequest(strings.NewReader(body))
	if err != nil {
		t.Fatalf("%s: %v", body, err)
	}
	return req
}

// TestResolveDigestGolden: resolve renders, byte for byte, the digest the
// eager buildJob rendered — and does so without generating an input.
func TestResolveDigestGolden(t *testing.T) {
	m := topology.Detect()
	for _, row := range goldenDigests {
		p, err := resolve(decodeRequest(t, row.body), m)
		if err != nil {
			t.Fatalf("%s: %v", row.body, err)
		}
		if p.digest != row.digest {
			t.Errorf("%s:\n digest %s\n parent %s", row.body, p.digest, row.digest)
		}
	}
	// The plan must not scale with the input: resolving WC-Large (16 MB
	// of text once materialised) allocates a few hundred bytes of plan
	// and digest, not a corpus.
	large := decodeRequest(t, `{"workload":"WC","class":"large","seed":5}`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const rounds = 100
	for i := 0; i < rounds; i++ {
		if _, err := resolve(large, m); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / rounds; per > 16<<10 {
		t.Fatalf("resolve allocates %d bytes per WC-Large request; it must not build the input", per)
	}
}

// builds reads the daemon's materialisation counter from /stats.
func builds(t *testing.T, ts *httptest.Server) int {
	t.Helper()
	return int(memoSection(t, ts)["builds"].(float64))
}

// TestAdmissionBuildsOnlyWhatRuns walks every way a submission can be
// answered without executing — memo hit, coalesced follower, streaming
// session, job cancelled while queued, 429, 503 — and checks that none
// of them materialises an input: the build counter moves only for the
// two jobs that actually ran.
func TestAdmissionBuildsOnlyWhatRuns(t *testing.T) {
	svc, ts, _ := newMemoService(t, Config{Seed: 3, MaxQueued: 1})
	// The next job to finish its build parks between build and execute,
	// holding its grant, until release is closed.
	var holdNext atomic.Bool
	held, release := make(chan struct{}), make(chan struct{})
	svc.afterBuild = func() {
		if holdNext.CompareAndSwap(true, false) {
			close(held)
			<-release
		}
	}
	want := 0
	check := func(what string) {
		t.Helper()
		if got := builds(t, ts); got != want {
			t.Fatalf("after %s: %d inputs built, want %d", what, got, want)
		}
	}
	noBuildSpan := func(what string, id int) {
		t.Helper()
		code, events := fetchTrace(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("%s trace: HTTP %d", what, code)
		}
		if _, ok := spanNames(events)["build"]; ok {
			t.Fatalf("%s trace carries a build span", what)
		}
	}

	// One cold job: one build.
	cold := `{"workload":"WC","seed":1,"config":{"pin":"none"}}`
	code, doc := postJob(t, ts, cold)
	if code != http.StatusCreated {
		t.Fatalf("cold POST: HTTP %d (%v)", code, doc)
	}
	waitDone(t, ts, int(doc["id"].(float64)))
	want = 1
	check("a cold job")

	// Memo hit.
	code, doc = postJob(t, ts, cold)
	if code != http.StatusOK || doc["cached"] != true {
		t.Fatalf("repeat POST: HTTP %d cached=%v", code, doc["cached"])
	}
	check("a memo hit")
	noBuildSpan("memo hit", int(doc["id"].(float64)))

	// Streaming sessions: started under a grant, fed by chunks, never
	// given a batch input.
	for _, app := range []string{"WC", "SYNTH"} {
		id := openStreamApp(t, ts, app, `{"window":1}`)
		if code, _ := deleteJob(t, ts, id); code != http.StatusNoContent {
			t.Fatalf("DELETE %s stream: HTTP %d", app, code)
		}
		waitDone(t, ts, id)
		check("a " + app + " streaming session")
		noBuildSpan(app+" stream", id)
	}

	// A leader holding the whole budget, parked after its build.
	holdNext.Store(true)
	blocker := `{"workload":"SYNTH","seed":100,"min_cpus":56,"config":{"pin":"none"},"synth":{"elements":1000,"keys":16}}`
	code, doc = postJob(t, ts, blocker)
	if code != http.StatusCreated {
		t.Fatalf("blocker POST: HTTP %d (%v)", code, doc)
	}
	leader := int(doc["id"].(float64))
	<-held
	want = 2
	check("the blocker's own build")

	// Coalesced follower.
	code, doc = postJob(t, ts, blocker)
	if code != http.StatusCreated || doc["coalesced"] != true {
		t.Fatalf("duplicate POST: HTTP %d coalesced=%v", code, doc["coalesced"])
	}
	follower := int(doc["id"].(float64))
	check("a coalesced follower")

	// Queued behind the blocker, then the 429 past the 1-deep queue.
	code, doc = postJob(t, ts, `{"workload":"WC","seed":101,"min_cpus":56,"config":{"pin":"none"}}`)
	if code != http.StatusCreated || doc["state"] != "queued" {
		t.Fatalf("queued POST: HTTP %d state=%v", code, doc["state"])
	}
	queued := int(doc["id"].(float64))
	if code, doc = postJob(t, ts, `{"workload":"WC","seed":102,"config":{"pin":"none"}}`); code != http.StatusTooManyRequests {
		t.Fatalf("overflow POST: HTTP %d (%v), want 429", code, doc)
	}
	check("a 429")

	// Cancelled while queued: it never reaches its Run closure.
	if code, _ := deleteJob(t, ts, queued); code != http.StatusNoContent {
		t.Fatalf("DELETE queued: HTTP %d", code)
	}
	if doc := waitDone(t, ts, queued); doc["state"] != "canceled" {
		t.Fatalf("cancelled queued job settled %v", doc["state"])
	}
	check("a job cancelled while queued")

	// 503 while draining.
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- svc.Shutdown(ctx)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never turned 503")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if code, doc = postJob(t, ts, `{"workload":"WC","seed":103,"config":{"pin":"none"}}`); code != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining: HTTP %d (%v), want 503", code, doc)
	}
	check("a 503")

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, id := range []int{leader, follower} {
		if doc := waitDone(t, ts, id); doc["state"] != "done" || doc["error"] != nil {
			t.Fatalf("job %d settled %v error=%v", id, doc["state"], doc["error"])
		}
	}
	noBuildSpan("follower", follower)
	check("everything settled")
}

// badRequestBodies is everything the eager build used to reject: each
// must still draw a 400 at POST (and seeds FuzzJobRequest).
var badRequestBodies = []string{
	`{}`,
	`{"workload":"  "}`,
	`{"workload":"NOPE"}`,
	`{"workload":"SM"}`,
	`{"workload":"WC","platform":"arm"}`,
	`{"workload":"WC","class":"huge"}`,
	`{"workload":"HG","container":"btree"}`,
	`{"workload":"WC","engine":"cuda"}`,
	`{"workload":"WC","priority":"urgent"}`,
	`{"workload":"WC","min_cpus":500}`,
	`{"workload":"WC","min_cpus":8,"max_cpus":2}`,
	`{"workload":"WC","config":{"pin":"sideways"}}`,
	`{"workload":"WC","config":{"steal":"sometimes"}}`,
	`{"workload":"WC","shard":{"index":0,"count":0}}`,
	`{"workload":"WC","shard":{"index":2,"count":2}}`,
	`{"workload":"HG","shard":{"index":-1,"count":2}}`,
	`{"workload":"KM","shard":{"index":0,"count":2}}`,
	`{"workload":"SYNTH","shard":{"index":3,"count":3}}`,
	`{"workload":"SYNTH","synth":{"skew":0.5}}`,
	`{"workload":"SYNTH","synth":{"skew":1}}`,
	`{"workload":"SYNTH","synth":{"map_kind":"gpu"}}`,
	`{"workload":"SYNTH","synth":{"combine_kind":"disk","combine_intensity":3}}`,
	`{"workload":"SYNTH","stream":{"window":0}}`,
	`{"workload":"SYNTH","stream":{"window":4,"slide":3}}`,
	`{"workload":"SYNTH","stream":{"window":1,"max_pending":-1}}`,
	`{"workload":"HG","stream":{"window":1}}`,
	`{"workload":"WC","engine":"phoenix","stream":{"window":1}}`,
	`{"workload":"WC","stream":{"window":1},"shard":{"index":0,"count":2}}`,
	`{"workload":"WC","container":"fixed-hash","stream":{"window":1}}`,
	`{"workload":"PCA","tuner":true}`, // not a request field
}

// TestBadRequestsStillRejectedAtPost: everything the eager build used to
// reject with a 400 is still rejected with a 400 at POST — nothing may
// be admitted and surface as a failed job later.
func TestBadRequestsStillRejectedAtPost(t *testing.T) {
	_, ts, _ := newMemoService(t, Config{Seed: 1})
	for _, body := range badRequestBodies {
		code, doc := postJob(t, ts, body)
		if code != http.StatusBadRequest {
			t.Errorf("POST %s: HTTP %d (%v), want 400", body, code, doc)
		}
	}
	_, list := getJSON(t, ts.URL+"/jobs")
	if jobs, _ := list["jobs"].([]any); len(jobs) != 0 {
		t.Fatalf("%d job records after rejected submissions: %v", len(jobs), jobs)
	}
	if got := builds(t, ts); got != 0 {
		t.Fatalf("%d inputs built for rejected submissions", got)
	}
}

// TestSubmitRefusesOtherGeneration: a POST /jobs naming another protocol
// generation — a coordinator of another generation dispatching a shard —
// is refused with 400 before anything is admitted or built; one naming
// this generation, or none (curl, a load generator), is served.
func TestSubmitRefusesOtherGeneration(t *testing.T) {
	_, ts, _ := newMemoService(t, Config{Seed: 4})
	submit := func(proto string) (int, string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/jobs",
			strings.NewReader(`{"workload":"WC","seed":5,"max_cpus":8,"config":{"pin":"none"},"shard":{"index":0,"count":2}}`))
		if proto != "" {
			req.Header.Set(ProtoHeader, proto)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&doc)
		if got := resp.Header.Get(ProtoHeader); got != ProtoVersion {
			t.Fatalf("answer names generation %q, want %q", got, ProtoVersion)
		}
		return resp.StatusCode, doc.Error
	}
	for _, proto := range []string{"2", "3", "5"} {
		code, msg := submit(proto)
		if code != http.StatusBadRequest || !strings.Contains(msg, fmt.Sprintf("protocol %q", proto)) {
			t.Fatalf("POST naming generation %s: HTTP %d %q, want 400 naming the generation", proto, code, msg)
		}
	}
	if _, list := getJSON(t, ts.URL+"/jobs"); len(list["jobs"].([]any)) != 0 {
		t.Fatalf("refused submissions left job records: %v", list["jobs"])
	}
	if got := builds(t, ts); got != 0 {
		t.Fatalf("%d inputs built for refused submissions", got)
	}
	for _, proto := range []string{ProtoVersion, ""} {
		if code, msg := submit(proto); code != http.StatusCreated && code != http.StatusOK {
			t.Fatalf("POST naming generation %q: HTTP %d %q, want it served", proto, code, msg)
		}
	}
}

// TestCancelBetweenBuildAndExecute: a cancellation that lands after the
// input was built but before the engine starts settles the job canceled,
// with the cancellation error and no execute span, and leaks no goroutine,
// CPU grant or registry record.
func TestCancelBetweenBuildAndExecute(t *testing.T) {
	svc, ts, _ := newMemoService(t, Config{Seed: 2})
	// Only the first job to finish its build parks.
	var parked atomic.Bool
	built, cancelled := make(chan struct{}), make(chan struct{})
	svc.afterBuild = func() {
		if parked.CompareAndSwap(false, true) {
			close(built)
			<-cancelled
		}
	}
	code, doc := postJob(t, ts, `{"workload":"WC","seed":8,"max_cpus":8,"config":{"pin":"none"}}`)
	if code != http.StatusCreated {
		t.Fatalf("POST: HTTP %d (%v)", code, doc)
	}
	id := int(doc["id"].(float64))
	<-built
	if code, _ := deleteJob(t, ts, id); code != http.StatusNoContent {
		t.Fatalf("DELETE: HTTP %d", code)
	}
	close(cancelled)

	doc = waitDone(t, ts, id)
	if doc["state"] != "canceled" || doc["error"] != context.Canceled.Error() {
		t.Fatalf("cancelled job settled state=%v error=%v", doc["state"], doc["error"])
	}
	_, events := fetchTrace(t, ts, id)
	spans := spanNames(events)
	if args, _ := spans["job"]["args"].(map[string]any); args["status"] != "canceled" {
		t.Fatalf("terminal job's trace root status = %v, want canceled", args["status"])
	}
	if _, ok := spans["build"]; !ok {
		t.Fatal("trace lost the build span")
	}
	if _, ok := spans["execute"]; ok {
		t.Fatal("a job cancelled before its engine started has an execute span")
	}
	if st := svc.Scheduler().Stats(); st.InUse != 0 || st.Running != 0 || st.Queued != 0 {
		t.Fatalf("scheduler after the cancel: %+v", st)
	}
	// Nothing cached, nothing left in flight: the same body executes.
	code, doc = postJob(t, ts, `{"workload":"WC","seed":8,"max_cpus":8,"config":{"pin":"none"}}`)
	if code != http.StatusCreated || doc["coalesced"] == true {
		t.Fatalf("resubmission: HTTP %d coalesced=%v, want a fresh execution", code, doc["coalesced"])
	}
	if doc := waitDone(t, ts, int(doc["id"].(float64))); doc["error"] != nil {
		t.Fatalf("resubmission failed: %v", doc["error"])
	}
	// The cancelled record is still there to be deleted, exactly once.
	if code, _ := deleteJob(t, ts, id); code != http.StatusConflict {
		t.Fatalf("DELETE of the settled record: HTTP %d, want 409", code)
	}
	if code, _ := getJSON(t, fmt.Sprintf("%s/jobs/%d", ts.URL, id)); code != http.StatusNotFound {
		t.Fatalf("deleted record still served: HTTP %d", code)
	}
	if leaked := faultinject.AwaitNoWorkers(2 * time.Second); len(leaked) > 0 {
		t.Fatalf("%d goroutines leaked:\n%s", len(leaked), strings.Join(leaked, "\n\n"))
	}
}

// TestRetainedRecordsHoldResultsNotInputs: past the retention bound the
// daemon's live heap is a function of the retained results. WC-Small
// materialises ~4 MB of text per job; five retained records used to pin
// five corpora (28 MB of live heap at the parent commit).
func TestRetainedRecordsHoldResultsNotInputs(t *testing.T) {
	const retain = 5
	_, ts, _ := newMemoService(t, Config{Seed: 4, RetainFinished: retain})
	heapInuse := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	before := heapInuse()
	for i := 0; i <= retain; i++ {
		code, doc := postJob(t, ts, fmt.Sprintf(`{"workload":"WC","seed":%d,"config":{"pin":"none"}}`, 500+i))
		if code != http.StatusCreated {
			t.Fatalf("POST %d: HTTP %d (%v)", i, code, doc)
		}
		waitDone(t, ts, int(doc["id"].(float64)))
	}
	if got := int(memoSection(t, ts)["retained_jobs"].(float64)); got > retain {
		t.Fatalf("%d records retained once the last job reads done, bound is %d", got, retain)
	}
	if got := builds(t, ts); got != retain+1 {
		t.Fatalf("%d inputs built for %d cold jobs", got, retain+1)
	}
	after := heapInuse()
	// Well under what the pinned inputs held, well over the results.
	if grown := int64(after) - int64(before); grown > 8<<20 {
		t.Fatalf("live heap grew %d MB across %d retained WC-Small records: records pin their inputs",
			grown>>20, retain)
	}
}

// TestResultWait: ?wait= turns the result poll into one request that
// returns the moment the job settles; a lapsed wait answers 202, a bad
// value 400, and no wait keeps the immediate answer.
func TestResultWait(t *testing.T) {
	svc, ts, _ := newMemoService(t, Config{Seed: 6})
	built, release := make(chan struct{}), make(chan struct{})
	svc.afterBuild = func() {
		close(built)
		<-release
	}
	code, doc := postJob(t, ts, `{"workload":"SYNTH","seed":3,"config":{"pin":"none"},"synth":{"elements":2000,"keys":16}}`)
	if code != http.StatusCreated {
		t.Fatalf("POST: HTTP %d (%v)", code, doc)
	}
	url := fmt.Sprintf("%s/jobs/%d/result", ts.URL, int(doc["id"].(float64)))
	<-built

	if code, _ := getJSON(t, url); code != http.StatusAccepted {
		t.Fatalf("no wait, job running: HTTP %d, want 202", code)
	}
	for _, bad := range []string{"soon", "-1s", "5"} {
		if code, _ := getJSON(t, url+"?wait="+bad); code != http.StatusBadRequest {
			t.Fatalf("wait=%s: HTTP %d, want 400", bad, code)
		}
	}
	start := time.Now()
	if code, _ := getJSON(t, url+"?wait=50ms"); code != http.StatusAccepted {
		t.Fatalf("lapsed wait: HTTP %d, want 202", code)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("wait=50ms on a running job answered after %v", d)
	}

	// A waiter parked well before the job settles is answered by the
	// completion itself.
	type reply struct {
		code int
		doc  map[string]any
		at   time.Time
	}
	got := make(chan reply, 1)
	go func() {
		code, doc := getJSON(t, url+"?wait=20s")
		got <- reply{code, doc, time.Now()}
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case r := <-got:
		t.Fatalf("waiter answered HTTP %d while the job was still running", r.code)
	default:
	}
	released := time.Now()
	close(release)
	r := <-got
	if r.code != http.StatusOK || r.doc["state"] != "done" || r.doc["digest"] == nil {
		t.Fatalf("waiter: HTTP %d state=%v digest=%v", r.code, r.doc["state"], r.doc["digest"])
	}
	if d := r.at.Sub(released); d > 5*time.Second {
		t.Fatalf("waiter answered %v after the job was released", d)
	}
	// Settled job, memo-hit record: wait has nothing to wait for.
	code, hit := postJob(t, ts, `{"workload":"SYNTH","seed":3,"config":{"pin":"none"},"synth":{"elements":2000,"keys":16}}`)
	if code != http.StatusOK {
		t.Fatalf("repeat POST: HTTP %d", code)
	}
	start = time.Now()
	if code, _ := getJSON(t, fmt.Sprintf("%s/jobs/%d/result?wait=10s", ts.URL, int(hit["id"].(float64)))); code != http.StatusOK {
		t.Fatalf("wait on a memo-hit record: HTTP %d", code)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("wait on a settled record took %v", d)
	}
}

// TestResolveRefusesUnseededStreamTable: a WC stream keys its table by
// client text, so it may not name the fixed-size table, whose hash secrets
// are public: Resolve refuses it naming the container field. The seeded
// growing table stays the stream default, and batch WC and a SYNTH stream
// still take the fixed-size table.
func TestResolveRefusesUnseededStreamTable(t *testing.T) {
	for _, body := range []string{
		`{"workload":"WC","container":"fixed-hash","stream":{"window":1}}`,
		`{"workload":"wc","container":"FixedHash","stream":{"window":4,"slide":2}}`,
	} {
		if _, err := Resolve(decodeRequest(t, body)); err == nil || !strings.Contains(err.Error(), "container") {
			t.Errorf("%s: err = %v, want a refusal naming the container field", body, err)
		}
	}
	for _, body := range []string{
		`{"workload":"WC","stream":{"window":1}}`,
		`{"workload":"WC","container":"hash","stream":{"window":1}}`,
		`{"workload":"WC","container":"fixed-hash"}`,
		`{"workload":"SYNTH","container":"fixed-hash","stream":{"window":1}}`,
	} {
		if _, err := Resolve(decodeRequest(t, body)); err != nil {
			t.Errorf("%s: %v", body, err)
		}
	}
}

// TestJobBodyBounded413: a POST /jobs body one byte over maxBodyBytes is
// refused with a 413 naming the bound, before it is decoded, and the daemon
// goes on admitting jobs.
func TestJobBodyBounded413(t *testing.T) {
	_, ts, _ := newMemoService(t, Config{Seed: 1})
	prefix, suffix := `{"workload":"`, `"}`
	body := prefix + strings.Repeat("x", maxBodyBytes+1-len(prefix)-len(suffix)) + suffix
	if code, doc := postJob(t, ts, body); code != http.StatusRequestEntityTooLarge || !strings.Contains(fmt.Sprint(doc), fmt.Sprint(maxBodyBytes)) {
		t.Fatalf("a %d-byte body: HTTP %d (%v), want 413 naming the bound %d", len(body), code, doc, maxBodyBytes)
	}
	if code, doc := postJob(t, ts, `{"workload":"SYNTH","config":{"pin":"none"},"synth":{"elements":2000,"keys":16}}`); code != http.StatusCreated {
		t.Fatalf("POST after the 413: HTTP %d (%v)", code, doc)
	}
}

// TestSizedFieldsBounded400: a request field that sizes an allocation up
// front — a ring's slots, a session's task channel, a SYNTH worker's
// 9-byte-per-key array — is refused with a 400
// above maxSized, before anything is allocated: at 4e9 it was a fatal out
// of memory. A value at the bound still resolves.
func TestSizedFieldsBounded400(t *testing.T) {
	_, ts, _ := newMemoService(t, Config{Seed: 1})
	for _, row := range []struct {
		field string
		body  func(n int) string
	}{
		{"config.queue_capacity", func(n int) string {
			return fmt.Sprintf(`{"workload":"SYNTH","config":{"pin":"none","queue_capacity":%d}}`, n)
		}},
		{"stream.max_pending", func(n int) string {
			return fmt.Sprintf(`{"workload":"SYNTH","config":{"pin":"none"},"stream":{"window":1,"max_pending":%d}}`, n)
		}},
		{"synth.keys", func(n int) string {
			return fmt.Sprintf(`{"workload":"SYNTH","config":{"pin":"none"},"synth":{"keys":%d}}`, n)
		}},
	} {
		t.Run(row.field, func(t *testing.T) {
			for _, n := range []int{maxSized + 1, 4e9} {
				if code, doc := postJob(t, ts, row.body(n)); code != http.StatusBadRequest || !strings.Contains(fmt.Sprint(doc), row.field) {
					t.Fatalf("%s=%d: HTTP %d (%v), want 400 naming the field", row.field, n, code, doc)
				}
			}
			req, err := decodeJobRequest(strings.NewReader(row.body(maxSized)))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := resolve(req, topology.HaswellServer()); err != nil {
				t.Fatalf("%s at the bound: %v", row.field, err)
			}
		})
	}
	_, list := getJSON(t, ts.URL+"/jobs")
	if jobs, _ := list["jobs"].([]any); len(jobs) != 0 {
		t.Fatalf("%d job records after rejected submissions: %v", len(jobs), jobs)
	}
}
