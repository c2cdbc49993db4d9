package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ramr/internal/service"
)

// newClusterServer fronts a Coordinator over the given workers with the
// ramrc HTTP surface.
func newClusterServer(t *testing.T, shards int, urls ...string) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(newCoordinator(t, shards, urls...), nil)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func getDoc(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decoding GET %s (HTTP %d): %v", url, resp.StatusCode, err)
	}
	return resp.StatusCode, doc
}

// TestServerEndToEnd drives the ramrc surface the way the CI smoke and
// the quickstart do: submit, wait for the merged result, compare its digest
// to the single-node run, then check /stats and /metrics.
func TestServerEndToEnd(t *testing.T) {
	wa, wb := newWorker(t), newWorker(t)
	req := &service.JobRequest{Workload: "HG", Seed: 9, MaxCPUs: 8}
	wantDigest, wantPairs := singleNodeDigest(t, wb.URL, req)

	_, ts := newClusterServer(t, 2, wa.URL, wb.URL)
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get(service.ProtoHeader); got != service.ProtoVersion {
		t.Errorf("coordinator response proto header %q, want %q", got, service.ProtoVersion)
	}
	var sub map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /jobs: HTTP %d (%v)", resp.StatusCode, sub)
	}
	id := int(sub["id"].(float64))

	// One request, no polling loop: ?wait= blocks on the dispatch.
	if code, doc := getDoc(t, fmt.Sprintf("%s/jobs/%d/result?wait=nonsense", ts.URL, id)); code != http.StatusBadRequest {
		t.Fatalf("GET result?wait=nonsense: HTTP %d (%v), want 400", code, doc)
	}
	code, res := getDoc(t, fmt.Sprintf("%s/jobs/%d/result?wait=30s", ts.URL, id))
	if code != http.StatusOK {
		t.Fatalf("GET result?wait=30s: HTTP %d (%v)", code, res)
	}
	if res["state"] != "done" {
		t.Fatalf("cluster job settled %v: %v", res["state"], res["error"])
	}
	if res["digest"] != wantDigest || int(res["pairs"].(float64)) != wantPairs {
		t.Fatalf("merged (%v pairs, %v) != single-node (%d pairs, %s)",
			res["pairs"], res["digest"], wantPairs, wantDigest)
	}
	if ps, _ := res["per_shard"].([]any); len(ps) != 2 {
		t.Fatalf("result carries %d shard records, want 2", len(ps))
	}

	code, stats := getDoc(t, ts.URL+"/stats")
	if code != http.StatusOK || stats["role"] != "coordinator" {
		t.Fatalf("GET /stats: HTTP %d (%v)", code, stats)
	}
	if ws, _ := stats["workers"].([]any); len(ws) != 2 {
		t.Fatalf("/stats lists %v workers, want 2", stats["workers"])
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"ramr_cluster_jobs_total 1",
		"ramr_cluster_shards_dispatched_total 2",
		"ramr_cluster_merges_total 1",
		"ramr_cluster_workers 2",
	} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// A trace of the run has probe/shard/merge spans.
	tresp, err := http.Get(fmt.Sprintf("%s/jobs/%d/trace", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	for _, want := range []string{"probe", "shard-0/2", "merge"} {
		if !strings.Contains(string(tb), want) {
			t.Errorf("trace missing %q span", want)
		}
	}
}

// TestServerRejectsBadSubmissions pins the admission gate on the HTTP
// surface.
func TestServerRejectsBadSubmissions(t *testing.T) {
	_, ts := newClusterServer(t, 2, "http://127.0.0.1:1")
	for _, tc := range []struct {
		name, body string
	}{
		{"malformed", `{`},
		{"unknown field", `{"workload":"WC","bogus":1}`},
		{"not shardable", `{"workload":"KM"}`},
		{"client shard", `{"workload":"WC","shard":{"index":0,"count":2}}`},
		{"stream", `{"workload":"WC","stream":{"window":1}}`},
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", tc.name, resp.StatusCode)
		}
	}
	if code, _ := getDoc(t, ts.URL+"/jobs/99"); code != http.StatusNotFound {
		t.Errorf("GET unknown job: HTTP %d, want 404", code)
	}
}

// TestServerCancelAndDrain pins DELETE on a running dispatch and the
// drain path: cancel settles the job as canceled, and Shutdown refuses
// new admissions.
func TestServerCancelAndDrain(t *testing.T) {
	// A worker that admits the shard and then never finishes it: the
	// poll loop spins until the coordinator's context is cancelled.
	stuck := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(service.ProtoHeader, service.ProtoVersion)
		switch {
		case r.URL.Path == "/stats":
			json.NewEncoder(w).Encode(map[string]any{
				"capabilities": service.Capabilities{
					Proto:     service.ProtoVersion,
					ShardApps: []string{"HG", "SYNTH", "WC"},
				},
			})
		case r.Method == http.MethodPost && r.URL.Path == "/jobs":
			w.WriteHeader(http.StatusCreated)
			fmt.Fprint(w, `{"id":1,"state":"queued"}`)
		default:
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"state":"running"}`)
		}
	}))
	t.Cleanup(stuck.Close)

	srv, ts := newClusterServer(t, 1, stuck.URL)
	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"workload":"WC"}`))
	if err != nil {
		t.Fatal(err)
	}
	var sub map[string]any
	json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	id := int(sub["id"].(float64))

	dreq, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/jobs/%d", ts.URL, id), nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE running job: HTTP %d, want 204", dresp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, doc := getDoc(t, fmt.Sprintf("%s/jobs/%d", ts.URL, id))
		if code == http.StatusOK && doc["state"] == "canceled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job did not settle canceled: %v", doc)
		}
		time.Sleep(5 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && err != context.DeadlineExceeded {
		t.Fatalf("drain: %v", err)
	}
	resp, err = http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"workload":"WC"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: HTTP %d, want 503", resp.StatusCode)
	}
	if r, err := http.Get(ts.URL + "/readyz"); err == nil {
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("/readyz while draining: HTTP %d, want 503", r.StatusCode)
		}
	}
}
