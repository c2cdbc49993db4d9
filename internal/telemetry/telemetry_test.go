package telemetry

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"
)

// fakeProbe is a settable Probe for sampler tests.
type fakeProbe struct {
	depth int
	cap   int
}

func (p *fakeProbe) Len() int { return p.depth }
func (p *fakeProbe) Cap() int { return p.cap }

// begin starts tel's run on a fresh ledger and returns the ledger.
func begin(tel *Telemetry, engine string) *Ledger {
	l := NewLedger(engine)
	tel.BeginRun(l)
	return l
}

func TestSeriesDecimates(t *testing.T) {
	s := newSeries(8)
	for i := 0; i < 100; i++ {
		s.add(Sample{T: time.Duration(i) * time.Millisecond})
	}
	if len(s.samples) > 8 {
		t.Fatalf("series exceeded bound: %d samples", len(s.samples))
	}
	if s.stride < 8 {
		t.Fatalf("stride %d: expected decimation after 100 offers into 8 slots", s.stride)
	}
	// The retained samples must span the run, oldest first.
	if s.samples[0].T != 0 {
		t.Fatalf("first retained sample at %v, want the run's start", s.samples[0].T)
	}
	for i := 1; i < len(s.samples); i++ {
		if s.samples[i].T <= s.samples[i-1].T {
			t.Fatalf("samples out of order at %d: %v <= %v", i, s.samples[i].T, s.samples[i-1].T)
		}
	}
	if last := s.samples[len(s.samples)-1].T; last < 50*time.Millisecond {
		t.Fatalf("decimated series ends at %v: lost the tail of the run", last)
	}
}

func TestPercentiles(t *testing.T) {
	if p := percentiles(nil); p != (Percentiles{}) {
		t.Fatalf("empty percentiles = %+v", p)
	}
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = float64(i + 1) // 1..100
	}
	p := percentiles(vs)
	if p.Min != 1 || p.Max != 100 {
		t.Fatalf("min/max: %+v", p)
	}
	if p.P50 < 49 || p.P50 > 52 || p.P90 < 89 || p.P90 > 92 || p.P99 < 98 {
		t.Fatalf("percentiles off: %+v", p)
	}
	if p.Mean != 50.5 {
		t.Fatalf("mean %v, want 50.5", p.Mean)
	}
}

func TestEndRunBuildsReport(t *testing.T) {
	tel := &Telemetry{Interval: time.Millisecond, MaxSamples: 64}
	l := begin(tel, "ramr")
	q := &fakeProbe{depth: 250, cap: 1000}
	tel.RegisterQueue("mapper-0", q)
	w := l.Register("mapper", 0)
	w.SetState(StateWorking)
	w.AddTask(60)
	w.AddTask(40)
	w.StoreProducer(100, 7, 13)
	cw := l.Register("combiner", 0)
	cw.StoreConsumer(100, 0, 0, 4)
	time.Sleep(5 * time.Millisecond)
	rep := tel.EndRun(map[string]float64{"map-combine": 0.5})

	if rep.Engine != "ramr" {
		t.Fatalf("engine %q", rep.Engine)
	}
	if rep.SampleCount == 0 || len(rep.Series) != rep.SampleCount {
		t.Fatalf("series: count=%d len=%d", rep.SampleCount, len(rep.Series))
	}
	if len(rep.Queues) != 1 || rep.Queues[0].Capacity != 1000 {
		t.Fatalf("queues: %+v", rep.Queues)
	}
	if occ := rep.Queues[0].Occupancy; occ.Max != 0.25 || occ.Min != 0.25 {
		t.Fatalf("constant-depth queue should sample 25%% occupancy, got %+v", occ)
	}
	if rep.Totals.Emitted != 100 || rep.Totals.Combined != 100 ||
		rep.Totals.Tasks != 2 || rep.Totals.Batches != 4 ||
		rep.Totals.FailedPush != 7 || rep.Totals.SleepMicros != 13 {
		t.Fatalf("totals: %+v", rep.Totals)
	}
	if rep.Throughput["map"] != 200 || rep.Throughput["combine"] != 200 {
		t.Fatalf("throughput: %+v", rep.Throughput)
	}
	// The mapper was StateWorking the whole run, the combiner idle.
	if rep.Workers[0].Busy != 1 {
		t.Fatalf("mapper busy = %v, want 1", rep.Workers[0].Busy)
	}
	if rep.Workers[1].Busy != 0 {
		t.Fatalf("combiner busy = %v, want 0", rep.Workers[1].Busy)
	}
	if tel.LastReport() != rep {
		t.Fatal("LastReport does not return the EndRun report")
	}
}

func TestEndRunForcesASampleOnShortRuns(t *testing.T) {
	// A run far shorter than the sampling interval must still produce a
	// non-empty series (EndRun takes one final forced sample).
	tel := &Telemetry{Interval: time.Hour}
	begin(tel, "ramr")
	tel.RegisterQueue("mapper-0", &fakeProbe{depth: 1, cap: 2})
	rep := tel.EndRun(nil)
	if rep.SampleCount == 0 {
		t.Fatal("short run produced an empty time-series")
	}
}

func TestSeriesForceBypassesStride(t *testing.T) {
	// Once decimation has raised the stride, a plain add drops most
	// offers; force must record regardless, so EndRun's final sample is
	// never lost.
	s := newSeries(8)
	for i := 0; i < 100; i++ {
		s.add(Sample{T: time.Duration(i) * time.Millisecond})
	}
	if s.stride < 2 {
		t.Fatalf("setup: stride %d, want decimation", s.stride)
	}
	final := Sample{T: time.Hour}
	s.add(final) // skipped==0 after the reset, so the stride drops this
	s.force(final)
	if got := s.samples[len(s.samples)-1].T; got != time.Hour {
		t.Fatalf("forced sample not recorded: last T = %v", got)
	}
}

// TestLedgerTotalsAggregates: a ledger's totals sum its shards, with no
// Telemetry attached: the producer side over mappers, the consumer side
// over slots, and the folds split by the role that made them.
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
	cw.AddTask(3) // a task on a combiner's shard is a helped one
	cw.StoreFolded(3)

	got := l.Totals()
	want := Totals{
		Emitted: 17, Combined: 17, Tasks: 3, Pushes: 12, FailedPush: 3, SleepMicros: 5,
		Pops: 12, EmptyPolls: 4, ShortPolls: 3, Batches: 2,
		TasksHelped: 1, FoldedByCombiners: 3, FoldedByMappers: 2,
	}
	if got != want {
		t.Fatalf("Totals = %+v, want %+v", got, want)
	}
}

func TestStopIdempotentAndReusable(t *testing.T) {
	tel := New()
	tel.Stop() // never started: no-op
	begin(tel, "ramr")
	tel.Stop()
	tel.Stop()
	begin(tel, "phoenix")
	rep := tel.EndRun(nil)
	if rep.Engine != "phoenix" {
		t.Fatalf("reuse: engine %q", rep.Engine)
	}
	tel.Stop()
}

func TestReportJSONAndSummary(t *testing.T) {
	tel := &Telemetry{Interval: time.Millisecond}
	l := begin(tel, "ramr")
	tel.RegisterQueue("mapper-0", &fakeProbe{depth: 5, cap: 8})
	w := l.Register("mapper", 0)
	w.AddTask(42)
	rep := tel.EndRun(map[string]float64{"map-combine": 1})

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"engine": "ramr"`, `"series"`, `"t_us"`, `"pairs_emitted": 42`} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("JSON missing %q:\n%s", want, buf.String())
		}
	}

	buf.Reset()
	if err := rep.Summary(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"telemetry [ramr]", "42 emitted", "queue mapper-0", "workers mapper"} {
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
	tel := &Telemetry{Interval: time.Millisecond}
	l := begin(tel, "ramr")
	tel.RegisterQueue("mapper-0", &fakeProbe{depth: 3, cap: 8})
	w := l.Register("mapper", 0)
	w.AddTask(10)
	defer tel.Stop()

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
		`ramr_queue_depth{engine="ramr",queue="mapper-0"} 3`,
		`ramr_queue_capacity{engine="ramr",queue="mapper-0"} 8`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, buf.String())
		}
	}
}

func TestServerServesMetricsAndPprof(t *testing.T) {
	tel := &Telemetry{Interval: time.Millisecond}
	l := begin(tel, "ramr")
	l.Register("mapper", 0).AddTask(5)
	defer tel.Stop()

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

// TestStopReleasesQueueProbes: once the sampler has stopped, a Telemetry
// keeps each queue's final depth and capacity for the report and the
// gauges, but no reference to the queue itself — the service retains one
// Telemetry per finished job, and each used to pin that job's rings.
func TestStopReleasesQueueProbes(t *testing.T) {
	tel := New()
	begin(tel, "test")
	live := &fakeProbe{depth: 3, cap: 8}
	tel.RegisterQueue("mapper-0", live)
	rep := tel.EndRun(nil)
	if len(rep.Queues) != 1 || rep.Queues[0].Capacity != 8 {
		t.Fatalf("report lost the queue: %+v", rep.Queues)
	}
	live.depth, live.cap = 99, 99 // the ring's later life must not show
	var buf bytes.Buffer
	if err := tel.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`ramr_queue_depth{engine="test",queue="mapper-0"} 3`, `ramr_queue_capacity{engine="test",queue="mapper-0"} 8`} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("exposition after EndRun lacks %q:\n%s", want, buf.String())
		}
	}
	if _, pinned := tel.queues[0].probe.(*fakeProbe); pinned {
		t.Fatal("stopped Telemetry still references the live queue")
	}
}
