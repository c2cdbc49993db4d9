package service

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
)

// The tests below pin the settle rule — publish, then become terminal —
// from the client's side: whatever a client does first after it saw a job
// terminal already finds everything derived from the run in place. None
// of them polls; each failed some of the time before the rule.

const tinySynth = `{"workload":"SYNTH","seed":%d,"config":{"pin":"none"},"synth":{"elements":1000,"keys":16}}`

// awaitResult blocks on ?wait= until the job settles and returns its
// result document.
func awaitResult(t *testing.T, ts *httptest.Server, id int) map[string]any {
	t.Helper()
	code, doc := getJSON(t, fmt.Sprintf("%s/jobs/%d/result?wait=20s", ts.URL, id))
	if code != http.StatusOK {
		t.Fatalf("result?wait= for job %d: HTTP %d (%v)", id, code, doc)
	}
	return doc
}

// TestDoneImpliesMemoHit: the moment a waiter is answered done, a repeat
// of the body is a 200 served from the cache, naming the executor.
func TestDoneImpliesMemoHit(t *testing.T) {
	_, ts, _ := newMemoService(t, Config{Seed: 21})
	body := fmt.Sprintf(tinySynth, 1)
	code, doc := postJob(t, ts, body)
	if code != http.StatusCreated {
		t.Fatalf("POST: HTTP %d (%v)", code, doc)
	}
	id := int(doc["id"].(float64))
	if res := awaitResult(t, ts, id); res["state"] != "done" {
		t.Fatalf("job settled %v: %v", res["state"], res["error"])
	}
	code, hit := postJob(t, ts, body)
	if code != http.StatusOK || hit["cached"] != true {
		t.Fatalf("repeat POST right after done: HTTP %d cached=%v, want a 200 memo hit", code, hit["cached"])
	}
	if got := int(hit["executed_by"].(float64)); got != id {
		t.Fatalf("hit names executor %d, want %d", got, id)
	}
}

// TestFailedOrCancelledImpliesFreshRun: the moment a job reads terminal
// without a result — its run failed, or was cancelled — nothing of it is
// left in flight: the scheduler holds no grant, and a repeat of the body
// is admitted as a fresh execution, not coalesced onto the dead one.
func TestFailedOrCancelledImpliesFreshRun(t *testing.T) {
	for _, tc := range []struct {
		name, state string
		// end makes the parked run end; it runs after the job built its
		// input and returns what afterBuild should do next.
		end func(t *testing.T, ts *httptest.Server, id int) (panics bool)
	}{
		{"failed", "done", func(*testing.T, *httptest.Server, int) bool { return true }},
		{"cancelled", "canceled", func(t *testing.T, ts *httptest.Server, id int) bool {
			if code, _ := deleteJob(t, ts, id); code != http.StatusNoContent {
				t.Errorf("DELETE: HTTP %d", code)
			}
			return false
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc, ts, _ := newMemoService(t, Config{Seed: 22})
			built, ended := make(chan struct{}), make(chan bool)
			first := true
			svc.afterBuild = func() {
				if !first { // the fresh run below passes straight through
					return
				}
				first = false
				close(built)
				if <-ended {
					panic("injected run failure")
				}
			}
			body := fmt.Sprintf(tinySynth, 2)
			code, doc := postJob(t, ts, body)
			if code != http.StatusCreated {
				t.Fatalf("POST: HTTP %d (%v)", code, doc)
			}
			id := int(doc["id"].(float64))
			<-built
			ended <- tc.end(t, ts, id)

			res := awaitResult(t, ts, id)
			if res["state"] != tc.state || res["error"] == nil {
				t.Fatalf("job settled state=%v error=%v, want %s with an error", res["state"], res["error"], tc.state)
			}
			// The trace root closes with the visible state; the error in its
			// args is what tells a failed run's trace from a clean one.
			_, events := fetchTrace(t, ts, id)
			if args, _ := spanNames(events)["job"]["args"].(map[string]any); args["status"] != tc.state || args["error"] != res["error"] {
				t.Fatalf("trace root args = %v, want status %s and error %v", args, tc.state, res["error"])
			}
			_, stats := getJSON(t, ts.URL+"/stats")
			sc := stats["scheduler"].(map[string]any)
			if sc["InUse"].(float64) != 0 || sc["Running"].(float64) != 0 || sc["Queued"].(float64) != 0 {
				t.Fatalf("scheduler still busy once the job reads terminal: %v", sc)
			}
			code, again := postJob(t, ts, body)
			if code != http.StatusCreated || again["coalesced"] != nil || again["cached"] != nil {
				t.Fatalf("repeat POST right after %s: HTTP %d coalesced=%v cached=%v, want a fresh 201",
					tc.state, code, again["coalesced"], again["cached"])
			}
			if res := awaitResult(t, ts, int(again["id"].(float64))); res["state"] != "done" || res["error"] != nil {
				t.Fatalf("fresh run settled state=%v error=%v", res["state"], res["error"])
			}
		})
	}
}

// TestTerminalImpliesTraceComplete: the first trace fetched after a 200
// result already has the scheduler-side spans, the execution, the settle
// span and a closed root.
func TestTerminalImpliesTraceComplete(t *testing.T) {
	_, ts, _ := newMemoService(t, Config{Seed: 23})
	code, doc := postJob(t, ts, fmt.Sprintf(tinySynth, 3))
	if code != http.StatusCreated {
		t.Fatalf("POST: HTTP %d (%v)", code, doc)
	}
	id := int(doc["id"].(float64))
	awaitResult(t, ts, id)
	_, events := fetchTrace(t, ts, id)
	spans := spanNames(events)
	for _, want := range []string{"queue-wait", "grant-alloc", "execute", "settle"} {
		if _, ok := spans[want]; !ok {
			t.Fatalf("first trace after the result lacks %q; have %v", want, keys(spans))
		}
	}
	if args, _ := spans["job"]["args"].(map[string]any); args["status"] != "done" {
		t.Fatalf("root span status = %v, want done", args["status"])
	}
}

// TestTerminalImpliesRetired: the first /stats after the last job reads
// done is already within the retention bound.
func TestTerminalImpliesRetired(t *testing.T) {
	const retain = 2
	_, ts, _ := newMemoService(t, Config{Seed: 24, RetainFinished: retain})
	for seed := 0; seed < 5; seed++ {
		code, doc := postJob(t, ts, fmt.Sprintf(tinySynth, 100+seed))
		if code != http.StatusCreated {
			t.Fatalf("POST seed %d: HTTP %d (%v)", seed, code, doc)
		}
		awaitResult(t, ts, int(doc["id"].(float64)))
		if got := int(memoSection(t, ts)["retained_jobs"].(float64)); got > retain {
			t.Fatalf("after job %d read done: %d records retained, bound is %d", seed, got, retain)
		}
	}
}

// parkHandler is a log handler that parks the goroutine logging msg until
// released: the watcher logs "job finished" after the scheduler ended the
// job and before it settles the record, which makes that window holdable.
type parkHandler struct {
	msg             string
	parked, release chan struct{}
}

func (h *parkHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *parkHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *parkHandler) WithGroup(string) slog.Handler            { return h }
func (h *parkHandler) Handle(_ context.Context, r slog.Record) error {
	if r.Message == h.msg {
		close(h.parked)
		<-h.release
	}
	return nil
}

// TestDeleteWhileSettlingKeepsRecord: a DELETE that lands after the run
// ended but before the record settled is a cancel that came too late. It
// is answered like any cancel of a live job, and the record stays: it
// settles done, pollable, and memoised.
func TestDeleteWhileSettlingKeepsRecord(t *testing.T) {
	park := &parkHandler{msg: "job finished", parked: make(chan struct{}), release: make(chan struct{})}
	_, ts, _ := newMemoService(t, Config{Seed: 25, Logger: slog.New(park)})
	body := fmt.Sprintf(tinySynth, 4)
	code, doc := postJob(t, ts, body)
	if code != http.StatusCreated {
		t.Fatalf("POST: HTTP %d (%v)", code, doc)
	}
	id := int(doc["id"].(float64))
	<-park.parked
	if _, st := getJSON(t, fmt.Sprintf("%s/jobs/%d", ts.URL, id)); st["state"] != "running" {
		t.Fatalf("unsettled job reads %v, want running", st["state"])
	}
	if code, _ := deleteJob(t, ts, id); code != http.StatusNoContent {
		t.Fatalf("DELETE while settling: HTTP %d, want 204", code)
	}
	close(park.release)
	if res := awaitResult(t, ts, id); res["state"] != "done" || res["error"] != nil {
		t.Fatalf("job settled state=%v error=%v, want done", res["state"], res["error"])
	}
	if code, hit := postJob(t, ts, body); code != http.StatusOK || hit["cached"] != true {
		t.Fatalf("repeat POST: HTTP %d cached=%v, want a 200 memo hit", code, hit["cached"])
	}
}
