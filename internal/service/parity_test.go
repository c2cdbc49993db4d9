package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// wireShape is what the parity golden pins of one response: the status
// code, the state it names and the key set of its JSON document.
type wireShape struct {
	Code  int      `json:"code"`
	State string   `json:"state,omitempty"`
	Keys  []string `json:"keys"`
}

// shapeOf reduces a response to its wireShape. imbalance_p90 is left out:
// it is omitted when the run was too short for the sampler to see a queue.
func shapeOf(code int, doc map[string]any) wireShape {
	sh := wireShape{Code: code, Keys: []string{}}
	sh.State, _ = doc["state"].(string)
	for k := range doc {
		if k != "imbalance_p90" {
			sh.Keys = append(sh.Keys, k)
		}
	}
	sort.Strings(sh.Keys)
	return sh
}

// TestWireParity replays a fixed scenario against ramrd's handler and
// compares every response's status code, state and JSON key set to
// testdata/parity.json, captured from this same scenario at the commit
// before the job API moved behind the shared front end (0c87d7d). The one
// difference from that capture is the cancel contract: a cancelled
// *running* job reads "canceled" (it read "done" there).
func TestWireParity(t *testing.T) {
	got := map[string]wireShape{}
	record := func(step string, code int, doc map[string]any) {
		got[step] = shapeOf(code, doc)
	}
	sub := func(step string, doc map[string]any, key string) {
		t.Helper()
		inner, ok := doc[key].(map[string]any)
		if list, isList := doc[key].([]any); isList && len(list) > 0 {
			inner, ok = list[0].(map[string]any)
		}
		if !ok {
			t.Fatalf("%s: no %q document in %v", step, key, doc)
		}
		got[step+"."+key] = shapeOf(0, inner)
	}

	svc, ts, _ := newMemoService(t, Config{Seed: 31, MaxQueued: 1})
	// The next job to finish its build parks until release is closed.
	var holdNext atomic.Bool
	var held, release chan struct{}
	hold := func() {
		held, release = make(chan struct{}), make(chan struct{})
		holdNext.Store(true)
	}
	svc.afterBuild = func() {
		if holdNext.CompareAndSwap(true, false) {
			close(held)
			<-release
		}
	}
	jobURL := func(id int, suffix string) string { return fmt.Sprintf("%s/jobs/%d%s", ts.URL, id, suffix) }

	// A leader parked mid-run holding the whole budget, a coalesced
	// duplicate, a queued job behind them and the overflow.
	hold()
	body := `{"workload":"WC","seed":1,"min_cpus":56,"config":{"pin":"none"}}`
	code, doc := postJob(t, ts, body)
	record("POST admitted", code, doc)
	leader := int(doc["id"].(float64))
	<-held
	code, doc = getJSON(t, jobURL(leader, ""))
	record("GET status running", code, doc)
	code, doc = getJSON(t, jobURL(leader, "/result"))
	record("GET result running", code, doc)
	code, doc = postJob(t, ts, body)
	record("POST coalesced", code, doc)
	follower := int(doc["id"].(float64))
	code, doc = postJob(t, ts, `{"workload":"HG","seed":2,"min_cpus":56,"config":{"pin":"none"}}`)
	record("POST queued", code, doc)
	queued := int(doc["id"].(float64))
	code, doc = postJob(t, ts, `{"workload":"HG","seed":3,"config":{"pin":"none"}}`)
	record("POST saturated", code, doc)
	code, doc = getJSON(t, ts.URL+"/jobs")
	record("GET list", code, doc)
	sub("GET list", doc, "jobs")
	code, doc = getJSON(t, jobURL(leader, "/result?wait=never"))
	record("GET result bad wait", code, doc)
	code, doc = deleteJob(t, ts, queued)
	record("DELETE queued", code, doc)
	code, doc = getJSON(t, jobURL(queued, "/result?wait=20s"))
	record("GET result canceled in queue", code, doc)

	close(release)
	code, doc = getJSON(t, jobURL(leader, "/result?wait=20s"))
	record("GET result done", code, doc)
	code, doc = getJSON(t, jobURL(leader, ""))
	record("GET status done", code, doc)
	code, doc = getJSON(t, jobURL(follower, "/result?wait=20s"))
	record("GET result follower", code, doc)
	code, doc = postJob(t, ts, body)
	record("POST cached", code, doc)

	// A job cancelled while it runs.
	hold()
	code, doc = postJob(t, ts, `{"workload":"WC","seed":4,"config":{"pin":"none"}}`)
	running := int(doc["id"].(float64))
	<-held
	code, doc = deleteJob(t, ts, running)
	record("DELETE running", code, doc)
	close(release)
	code, doc = getJSON(t, jobURL(running, "/result?wait=20s"))
	record("GET result canceled while running", code, doc)

	code, doc = getJSON(t, ts.URL+"/stats")
	record("GET stats", code, doc)
	for _, key := range []string{"scheduler", "memo", "runtime", "capabilities", "jobs"} {
		sub("GET stats", doc, key)
	}
	code, doc = deleteJob(t, ts, leader)
	record("DELETE settled", code, doc)
	code, doc = deleteJob(t, ts, leader)
	record("DELETE deleted", code, doc)
	code, doc = getJSON(t, jobURL(999, ""))
	record("GET unknown", code, doc)
	code, doc = postJob(t, ts, `{"workload":"NOPE"}`)
	record("POST bad workload", code, doc)
	code, doc = postJob(t, ts, `{"workload":"WC","bogus":1}`)
	record("POST unknown field", code, doc)

	code, doc = postJob(t, ts, `{"workload":"SYNTH","max_cpus":8,"config":{"pin":"none"},"stream":{"window":1}}`)
	record("POST stream", code, doc)
	code, doc = deleteJob(t, ts, int(doc["id"].(float64)))
	record("DELETE stream", code, doc)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	code, doc = postJob(t, ts, body)
	record("POST draining", code, doc)
	for _, probe := range []string{"/readyz", "/healthz"} {
		resp, err := http.Get(ts.URL + probe)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		got["GET "+probe+" draining"] = wireShape{Code: resp.StatusCode, Keys: []string{}}
	}

	raw, err := os.ReadFile("testdata/parity.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]wireShape
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for step, w := range want {
		if g := got[step]; fmt.Sprint(g) != fmt.Sprint(w) {
			t.Errorf("%s:\n  got  %+v\n  want %+v", step, g, w)
		}
	}
	if len(got) != len(want) || t.Failed() {
		now, _ := json.MarshalIndent(got, "", "  ")
		t.Fatalf("wire shapes differ from testdata/parity.json (%d steps, golden has %d); this run:\n%s", len(got), len(want), now)
	}
}
