package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"ramr/internal/service"
)

// wireShape is what the parity golden pins of one response: the status
// code, the state it names and the key set of its JSON document.
type wireShape struct {
	Code  int      `json:"code"`
	State string   `json:"state,omitempty"`
	Keys  []string `json:"keys"`
}

func shapeOf(code int, doc map[string]any) wireShape {
	sh := wireShape{Code: code, Keys: []string{}}
	sh.State, _ = doc["state"].(string)
	for k := range doc {
		sh.Keys = append(sh.Keys, k)
	}
	sort.Strings(sh.Keys)
	return sh
}

// TestWireParity replays a fixed scenario against ramrc's handler and
// compares every response's status code, state and JSON key set to
// testdata/parity.json, captured from this same scenario at the commit
// before the job API moved behind the shared front end (0c87d7d).
func TestWireParity(t *testing.T) {
	got := map[string]wireShape{}
	call := func(step, method, url, body string) map[string]any {
		t.Helper()
		req, _ := http.NewRequest(method, url, strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		var doc map[string]any
		_ = json.Unmarshal(raw, &doc) // 204 and the probes have no JSON body
		got[step] = shapeOf(resp.StatusCode, doc)
		return doc
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

	// A dispatch that never finishes: the live documents and the cancel.
	stuck := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(service.ProtoHeader, service.ProtoVersion)
		switch {
		case r.Method == http.MethodPost:
			w.WriteHeader(http.StatusCreated)
			fmt.Fprint(w, `{"id":1,"state":"queued"}`)
		default:
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"state":"running"}`)
		}
	}))
	t.Cleanup(stuck.Close)
	_, ts := newClusterServer(t, 1, stuck.URL)
	call("POST admitted", "POST", ts.URL+"/jobs", `{"workload":"WC"}`)
	call("GET status running", "GET", ts.URL+"/jobs/1", "")
	call("GET result running", "GET", ts.URL+"/jobs/1/result", "")
	call("GET result bad wait", "GET", ts.URL+"/jobs/1/result?wait=never", "")
	sub("GET list", call("GET list", "GET", ts.URL+"/jobs", ""), "jobs")
	call("DELETE running", "DELETE", ts.URL+"/jobs/1", "")
	call("GET result canceled", "GET", ts.URL+"/jobs/1/result?wait=20s", "")
	call("DELETE settled", "DELETE", ts.URL+"/jobs/1", "")
	call("DELETE deleted", "DELETE", ts.URL+"/jobs/1", "")
	call("GET unknown", "GET", ts.URL+"/jobs/999", "")
	call("POST not shardable", "POST", ts.URL+"/jobs", `{"workload":"KM"}`)
	call("POST unknown field", "POST", ts.URL+"/jobs", `{"workload":"WC","bogus":1}`)

	// A dispatch that completes, then the drain.
	srv, ts := newClusterServer(t, 2, newWorker(t).URL, newWorker(t).URL)
	call("POST admitted (2 workers)", "POST", ts.URL+"/jobs", `{"workload":"HG","seed":9,"max_cpus":8}`)
	sub("GET result done", call("GET result done", "GET", ts.URL+"/jobs/1/result?wait=30s", ""), "per_shard")
	call("GET status done", "GET", ts.URL+"/jobs/1", "")
	stats := call("GET stats", "GET", ts.URL+"/stats", "")
	sub("GET stats", stats, "jobs")
	sub("GET stats", stats, "workers")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	call("POST draining", "POST", ts.URL+"/jobs", `{"workload":"WC"}`)
	call("GET /readyz draining", "GET", ts.URL+"/readyz", "")
	call("GET /healthz draining", "GET", ts.URL+"/healthz", "")

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

// TestTraceRootNamesClusterJob: the shared front end opens the recorder,
// but the coordinator's traces keep their own root span name.
func TestTraceRootNamesClusterJob(t *testing.T) {
	_, ts := newClusterServer(t, 2, newWorker(t).URL, newWorker(t).URL)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"workload":"HG","seed":11,"max_cpus":8}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp, err = http.Get(ts.URL + "/jobs/1/result?wait=30s"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp, err = http.Get(ts.URL + "/jobs/1/trace"); err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if args, _ := ev["args"].(map[string]any); ev["name"] == "cluster-job" && ev["ph"] == "X" && args["status"] == "done" {
			return
		}
	}
	t.Fatalf("no closed cluster-job root span in %v", events)
}
