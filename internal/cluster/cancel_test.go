package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ramr/internal/service"
)

// slowShards is a job whose shards each run for a few hundred
// milliseconds: long enough to be cancelled mid-run.
var slowShards = &service.JobRequest{Workload: "SYNTH", Seed: 13, MaxCPUs: 8,
	Config: service.ConfigOverlay{Pin: "none"},
	Synth:  service.SynthParams{Elements: 80_000, Keys: 64, MapIntensity: 400}}

// cancellingWorker fronts a real worker and cancels the first shard job it
// admits — DELETE on the worker itself, while the shard runs — before
// handing the admission back to the coordinator. It is what an operator
// cancelling the shard job, or a worker draining under it, looks like.
type cancellingWorker struct {
	backend  *httptest.Server
	canceled atomic.Int64
}

func (cw *cancellingWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost || r.URL.Path != "/jobs" || cw.canceled.Load() > 0 {
		(&flakyWorker{backend: cw.backend}).proxy(w, r)
		return
	}
	resp, err := http.Post(cw.backend.URL+"/jobs", "application/json", r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var doc struct {
		ID int `json:"id"`
	}
	if resp.StatusCode == http.StatusCreated && json.Unmarshal(body, &doc) == nil {
		del, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/jobs/%d", cw.backend.URL, doc.ID), nil)
		if dresp, err := http.DefaultClient.Do(del); err == nil {
			dresp.Body.Close()
			if dresp.StatusCode == http.StatusNoContent {
				cw.canceled.Add(1)
			}
		}
	}
	w.Header().Set(service.ProtoHeader, resp.Header.Get(service.ProtoHeader))
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
}

// TestShardCancelledOnWorkerReshards: a shard job cancelled on its worker
// while it runs reads "canceled" there — the worker's doing, not the
// shard's — so the coordinator reshards onto the other worker and the
// merged digest still equals the single-node run's. (When a cancelled
// running job read "done" with an error and no partial, the coordinator
// took it for a failed shard and aborted the whole job.)
func TestShardCancelledOnWorkerReshards(t *testing.T) {
	healthy := newWorker(t)
	cw := &cancellingWorker{backend: newWorker(t)}
	cts := httptest.NewServer(cw)
	t.Cleanup(cts.Close)

	wantDigest, wantPairs := singleNodeDigest(t, healthy.URL, slowShards)
	co := newCoordinator(t, 2, healthy.URL, cts.URL)
	res, err := co.Run(context.Background(), slowShards, nil)
	if err != nil {
		t.Fatalf("cluster job aborted after a worker-side cancel: %v", err)
	}
	if cw.canceled.Load() != 1 {
		t.Fatalf("%d shard jobs cancelled mid-run on the worker, want 1; the test exercised nothing", cw.canceled.Load())
	}
	if res.Digest != wantDigest || res.Pairs != wantPairs {
		t.Fatalf("after reshard: merged (%d pairs, %s) != single-node (%d pairs, %s)",
			res.Pairs, res.Digest, wantPairs, wantDigest)
	}
	resharded := false
	for _, sr := range res.PerShard {
		if sr.Resharded {
			resharded = true
			if sr.Worker != healthy.URL {
				t.Errorf("resharded shard %s completed on %s, want %s", sr.Shard, sr.Worker, healthy.URL)
			}
		}
	}
	if !resharded {
		t.Fatalf("no shard recorded a reshard: %+v", res.PerShard)
	}
}

// TestCancelledClusterJobCancelsItsShards: DELETE on a running cluster job
// reaches the workers — the admitted shard job is cancelled there instead
// of running to completion for nobody.
func TestCancelledClusterJobCancelsItsShards(t *testing.T) {
	worker := newWorker(t)
	_, ts := newClusterServer(t, 1, worker.URL)
	body, _ := json.Marshal(slowShards)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub map[string]any
	json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	id := int(sub["id"].(float64))

	// Wait for the shard job to be running on the worker.
	shardJob := 0
	for deadline := time.Now().Add(20 * time.Second); shardJob == 0; time.Sleep(2 * time.Millisecond) {
		_, list := getDoc(t, worker.URL+"/jobs")
		for _, raw := range list["jobs"].([]any) {
			if j := raw.(map[string]any); j["state"] == "running" {
				shardJob = int(j["id"].(float64))
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no shard job started on the worker")
		}
	}
	del, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/jobs/%d", ts.URL, id), nil)
	dresp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE running cluster job: HTTP %d, want 204", dresp.StatusCode)
	}
	if code, doc := getDoc(t, fmt.Sprintf("%s/jobs/%d/result?wait=20s", ts.URL, id)); code != http.StatusOK || doc["state"] != "canceled" {
		t.Fatalf("cluster job after DELETE: HTTP %d state %v", code, doc["state"])
	}
	code, doc := getDoc(t, fmt.Sprintf("%s/jobs/%d/result?wait=20s", worker.URL, shardJob))
	if code != http.StatusOK || doc["state"] != "canceled" {
		t.Fatalf("shard job on the worker after the cluster job was cancelled: HTTP %d state %v, want canceled",
			code, doc["state"])
	}
}
