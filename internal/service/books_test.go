package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
)

// volatileCounts are the counters of a job document that depend on how the
// run's goroutines interleaved: how often a ring was found full, empty or
// short, and how long a producer parked. The golden states their names and
// places; their values read as #.
var volatileCounts = regexp.MustCompile(`"(FailedPush|EmptyPolls|ShortPolls|BatchCalls|SleepMicros)": \d+`)

// TestBooksWireGolden pins, byte for byte, the queue, steal and
// telemetry.totals objects of one fused and one shipping job document:
// the run's books as GET /jobs/{id}/result serves them (testdata/books.golden,
// captured from this same scenario). The fused job is one worker on a
// one-CPU grant, so its takes are all local. The shipping job runs on a Haswell
// grant of one core's two SMT siblings, {0, 28}, so its pinning plan puts the
// combiner beside the mapper and every pair crosses the ring.
func TestBooksWireGolden(t *testing.T) {
	_, ts, _ := newTestService(t, 4)
	var got strings.Builder
	for _, run := range []struct{ name, body, grant string }{
		{"fused", `{"workload":"WC","seed":7,"max_cpus":1,"config":{"pin":"none"}}`, ""},
		{"shipping", `{"workload":"WC","seed":7,"min_cpus":2,"max_cpus":2}`, "[0,28]"},
	} {
		code, doc := postJob(t, ts, run.body)
		if code != http.StatusCreated {
			t.Fatalf("%s: POST: HTTP %d (%v)", run.name, code, doc)
		}
		resp, err := http.Get(fmt.Sprintf("%s/jobs/%d/result?wait=20s", ts.URL, int(doc["id"].(float64))))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: result: HTTP %d, %v", run.name, resp.StatusCode, err)
		}
		var res struct {
			State     string
			Grant     json.RawMessage
			Queue     json.RawMessage
			Steal     json.RawMessage
			Telemetry struct{ Totals json.RawMessage }
		}
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		var grant bytes.Buffer
		if err := json.Compact(&grant, res.Grant); err != nil {
			t.Fatal(err)
		}
		if res.State != "done" || (run.grant != "" && grant.String() != run.grant) {
			t.Fatalf("%s: job %s on grant %s, want done on %s", run.name, res.State, grant.String(), run.grant)
		}
		for _, sec := range []struct {
			name string
			raw  json.RawMessage
		}{{"queue", res.Queue}, {"steal", res.Steal}, {"telemetry.totals", res.Telemetry.Totals}} {
			fmt.Fprintf(&got, "%s %s %s\n", run.name, sec.name, volatileCounts.ReplaceAll(sec.raw, []byte(`"$1": #`)))
		}
	}
	want, err := os.ReadFile("testdata/books.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("the books drifted from testdata/books.golden; this run:\n%s", got.String())
	}
}
