package telemetry

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"ramr/internal/spsc"
)

// begin starts tel's run on a fresh ledger and returns the ledger.
func begin(tel *Telemetry, engine string) *Ledger {
	l := NewLedger(engine)
	tel.BeginRun(l)
	return l
}

// TestEndRunBuildsReport: a report is the attached ledger, read at EndRun —
// its totals, one entry per shard, throughput over the map-combine phase —
// and a Telemetry reused for a later run reports that run's ledger.
func TestEndRunBuildsReport(t *testing.T) {
	tel := New()
	l := begin(tel, "ramr")
	w := l.Register("mapper", 0)
	w.AddTask(60)
	w.AddTask(40)
	w.StoreProducer(100, 7, 13)
	cw := l.Register("combiner", 0)
	cw.StoreConsumer(100, 0, 0, 4)
	rep := tel.EndRun(map[string]float64{"map-combine": 0.5})

	if rep.Engine != "ramr" {
		t.Fatalf("engine %q", rep.Engine)
	}
	if rep.Totals != l.Totals() {
		t.Fatalf("report totals %+v, ledger totals %+v", rep.Totals, l.Totals())
	}
	if rep.Totals.Emitted != 100 || rep.Totals.Combined != 100 ||
		rep.Totals.Tasks != 2 || rep.Totals.Queue.BatchCalls != 4 ||
		rep.Totals.Queue.FailedPush != 7 || rep.Totals.Queue.SleepMicros != 13 {
		t.Fatalf("totals: %+v", rep.Totals)
	}
	if len(rep.Workers) != 2 || rep.Workers[0].Role != "mapper" || rep.Workers[0].Emitted != 100 || rep.Workers[1].Combined != 100 {
		t.Fatalf("workers: %+v", rep.Workers)
	}
	if rep.Throughput["map"] != 200 || rep.Throughput["combine"] != 200 {
		t.Fatalf("throughput: %+v", rep.Throughput)
	}
	if tel.LastReport() != rep || LedgerOf(tel) != l {
		t.Fatal("LastReport or Ledger does not return the run's")
	}

	next := begin(tel, "phoenix")
	next.Register("mapper", 0).AddTask(5)
	if rep := tel.EndRun(nil); rep.Engine != "phoenix" || rep.Totals.Emitted != 5 || len(rep.Workers) != 1 {
		t.Fatalf("reused Telemetry reported %+v, want the second run's ledger", rep)
	}
}

// TestLedgerTotalsAggregates: a ledger's totals sum its shards, with no
// Telemetry attached: the producer side over mappers, the consumer side
// over slots, and the pairs folded where they were emitted, by either role,
// as combined.
func TestLedgerTotalsAggregates(t *testing.T) {
	l := NewLedger("ramr")
	w0 := l.Register("mapper", 0)
	w0.AddTask(10)
	w0.StoreProducer(8, 2, 5)
	w0.StoreFolded(2)
	w1 := l.Register("mapper", 1)
	w1.AddTask(4)
	w1.StoreProducer(4, 1, 0)
	cw := l.Register("combiner", 0)
	cw.StoreConsumer(12, 4, 3, 2)
	cw.AddTask(3)
	cw.StoreFolded(3)

	got := l.Totals()
	want := Totals{
		Emitted: 17, Combined: 17, Tasks: 3,
		Queue: spsc.Stats{Pushes: 12, FailedPush: 3, SleepMicros: 5, Pops: 12, EmptyPolls: 4, ShortPolls: 3, BatchCalls: 2},
	}
	if got != want {
		t.Fatalf("Totals = %+v, want %+v", got, want)
	}
}

func TestReportJSONAndSummary(t *testing.T) {
	tel := New()
	l := begin(tel, "ramr")
	w := l.Register("mapper", 0)
	w.AddTask(42)
	w.StoreProducer(42, 3, 9)
	l.Register("combiner", 0).StoreConsumer(42, 5, 2, 11)
	rep := tel.EndRun(map[string]float64{"map-combine": 1})

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"engine": "ramr"`, `"pairs_emitted": 42`, `"FailedPush": 3`, `"steal": {`} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("JSON missing %q:\n%s", want, buf.String())
		}
	}
	if strings.Contains(buf.String(), `"series"`) {
		t.Fatalf("JSON carries a series:\n%s", buf.String())
	}

	buf.Reset()
	if err := rep.Summary(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"telemetry [ramr]", "42 emitted", "rings: 42 pushed, 42 popped; 5 empty polls, 2 short polls", "throughput map"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("summary missing %q:\n%s", want, buf.String())
		}
	}
}

// promSampleLine matches one Prometheus text-format sample:
// metric_name{label="v",...} value
var promSampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{([a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*",?)*\})? [-+]?([0-9]*\.)?[0-9]+([eE][-+]?[0-9]+)?$`)

// checkPromText validates Prometheus text exposition format line by line:
// every non-comment line must parse as a sample, every metric must be
// preceded by HELP and TYPE comments.
func checkPromText(t *testing.T, r io.Reader) (samples int) {
	t.Helper()
	sc := bufio.NewScanner(r)
	typed := map[string]bool{}
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) < 4 {
				t.Fatalf("malformed comment: %q", line)
			}
			if fields[1] == "TYPE" {
				if ty := fields[3]; ty != "counter" && ty != "gauge" {
					t.Fatalf("bad metric type in %q", line)
				}
				typed[fields[2]] = true
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment form: %q", line)
		}
		if !promSampleLine.MatchString(line) {
			t.Fatalf("invalid prometheus sample line: %q", line)
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if !typed[name] {
			t.Fatalf("sample %q has no preceding # TYPE", name)
		}
		samples++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples
}

func TestWritePrometheusFormat(t *testing.T) {
	tel := New()
	l := begin(tel, "ramr")
	w := l.Register("mapper", 0)
	w.AddTask(10)

	var buf bytes.Buffer
	if err := tel.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	n := checkPromText(t, bytes.NewReader(buf.Bytes()))
	if n == 0 {
		t.Fatal("no samples in prometheus output")
	}
	for _, want := range []string{
		`ramr_worker_pairs_emitted_total{engine="ramr",role="mapper",worker="0"} 10`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, buf.String())
		}
	}
	// The exposition is the ledger: no sampled gauge or state word is left.
	for _, gone := range []string{"ramr_queue_depth", "ramr_queue_capacity", "ramr_samples_total", "ramr_queue_imbalance", "ramr_worker_state"} {
		if strings.Contains(buf.String(), gone) {
			t.Fatalf("prometheus output still carries %s:\n%s", gone, buf.String())
		}
	}
}

// TestRunDurationFrozenAtEnd: ramr_run_duration_seconds runs with the
// clock while the run is live and stops at EndRun, reading the report's
// duration on every later scrape; the next BeginRun starts it again.
func TestRunDurationFrozenAtEnd(t *testing.T) {
	tel := New()
	begin(tel, "ramr")
	duration := func() float64 {
		t.Helper()
		var buf bytes.Buffer
		if err := tel.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		m := regexp.MustCompile(`(?m)^ramr_run_duration_seconds (\S+)$`).FindStringSubmatch(buf.String())
		if m == nil {
			t.Fatalf("no ramr_run_duration_seconds sample:\n%s", buf.String())
		}
		var v float64
		if _, err := fmt.Sscan(m[1], &v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	time.Sleep(5 * time.Millisecond)
	if live := duration(); live < 0.005 {
		t.Fatalf("live run reads %vs after 5ms", live)
	}
	rep := tel.EndRun(nil)
	time.Sleep(20 * time.Millisecond)
	want := float64(rep.DurationMicros) / 1e6
	for i := 0; i < 2; i++ {
		if got := duration(); math.Abs(got-want) > 1e-6+1e-5*want {
			t.Fatalf("scrape %d after EndRun reads %vs, the report %vs", i, got, want)
		}
	}
	begin(tel, "ramr")
	a := duration()
	time.Sleep(5 * time.Millisecond)
	if b := duration(); b < a+0.005 {
		t.Fatalf("the next run reads %vs, then %vs 5ms later: its clock is stopped", a, b)
	}
}

func TestServerServesMetricsAndPprof(t *testing.T) {
	tel := New()
	l := begin(tel, "ramr")
	l.Register("mapper", 0).AddTask(5)

	srv, err := NewServer(tel, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	metrics := get("/metrics")
	if n := checkPromText(t, strings.NewReader(metrics)); n == 0 {
		t.Fatal("/metrics served no samples")
	}
	if !strings.Contains(get("/debug/pprof/"), "profile") {
		t.Fatal("pprof index not served")
	}
}
