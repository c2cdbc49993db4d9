package telemetry_test

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"ramr/internal/container"
	"ramr/internal/core"
	"ramr/internal/mr"
	"ramr/internal/phoenix"
	"ramr/internal/spsc"
	"ramr/internal/telemetry"
	"ramr/internal/topology"
)

// wcSpec is a small WordCount: each split is a line of words, Map emits
// (word, 1), Combine sums. emits is the exact number of pairs Map will
// emit over the whole input, for conservation checks.
func wcSpec(lines int) (spec *mr.Spec[string, string, int, int], emits uint64) {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	splits := make([]string, lines)
	for i := range splits {
		var sb strings.Builder
		for w := 0; w < 20; w++ {
			sb.WriteString(words[(i+w)%len(words)])
			sb.WriteByte(' ')
		}
		splits[i] = sb.String()
		emits += 20
	}
	spec = &mr.Spec[string, string, int, int]{
		Name:   "wordcount",
		Splits: splits,
		Map: func(line string, emit func(string, int)) {
			for _, w := range strings.Fields(line) {
				emit(w, 1)
			}
		},
		Combine:      func(a, b int) int { return a + b },
		Reduce:       mr.IdentityReduce[string, int](),
		NewContainer: func() container.Container[string, int] { return container.NewHash[string, int]() },
		Less:         func(a, b string) bool { return a < b },
	}
	return spec, emits
}

func testConfig() mr.Config {
	cfg := mr.DefaultConfig()
	cfg.Mappers = 4
	cfg.Combiners = 2
	cfg.Machine = topology.Flat(4)
	cfg.Pin = mr.PinNone
	return cfg
}

// TestConservationRAMR runs WordCount on the decoupled engine and checks
// the full conservation chain: every pair counted at the emit closure was
// fed to Combine, either through a ring (pushed == popped) or where it was
// emitted, and the telemetry totals say the same as the run's own books. It
// runs twice: conserving work, and under a one-CPU grant, where nothing may
// be folded in place and every pair is a ring's.
func TestConservationRAMR(t *testing.T) {
	t.Run("conserving", func(t *testing.T) { conservationRAMR(t, nil) })
	t.Run("one-cpu-grant", func(t *testing.T) { conservationRAMR(t, []int{0}) })
}

func conservationRAMR(t *testing.T, grant []int) {
	spec, emits := wcSpec(400)
	cfg := testConfig()
	cfg.CPUGrant = grant
	cfg.Telemetry = &telemetry.Telemetry{Interval: 100 * time.Microsecond}

	res, err := core.Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Telemetry
	if rep == nil {
		t.Fatal("Result.Telemetry is nil with Config.Telemetry set")
	}
	qs, help := res.QueueStats, res.Help
	if rep.Totals.Emitted != emits || rep.Totals.Combined != emits {
		t.Fatalf("telemetry emitted %d, combined %d, want both %d", rep.Totals.Emitted, rep.Totals.Combined, emits)
	}
	if qs.Pushes+help.Pairs() != emits {
		t.Fatalf("%d pushed + %d folded in place, want %d emitted", qs.Pushes, help.Pairs(), emits)
	}
	if qs.Pops != qs.Pushes {
		t.Fatalf("pops %d != pushes %d", qs.Pops, qs.Pushes)
	}
	if got := (mr.HelpStats{Tasks: rep.Totals.TasksHelped, CombinerPairs: rep.Totals.FoldedByCombiners, MapperPairs: rep.Totals.FoldedByMappers}); got != help {
		t.Fatalf("telemetry totals %+v, Result.Help %+v", got, help)
	}
	if want := len(mr.Tasks(len(spec.Splits), cfg.TaskSize)); rep.Totals.Tasks != uint64(want) {
		t.Fatalf("telemetry counted %d tasks, want %d", rep.Totals.Tasks, want)
	}
	if rep.Totals.Batches != qs.BatchCalls {
		t.Fatalf("telemetry batches %d, queue batch calls %d", rep.Totals.Batches, qs.BatchCalls)
	}
	if grant != nil && (help != (mr.HelpStats{}) || qs.BatchCalls == 0) {
		t.Fatalf("one-CPU grant: help %+v, %d batch calls; want no help and every pair through a ring", help, qs.BatchCalls)
	}
	if rep.SampleCount == 0 || len(rep.Series) == 0 {
		t.Fatal("empty occupancy time-series")
	}
	if len(rep.Queues) != cfg.Mappers {
		t.Fatalf("%d queue reports, want %d", len(rep.Queues), cfg.Mappers)
	}
	// Mapper failed-push/sleep mirrors must agree with the queue totals.
	var fp, sl uint64
	for _, w := range rep.Workers {
		if w.Role == "mapper" {
			fp += w.FailedPush
			sl += w.SleepMicros
		}
	}
	if fp != qs.FailedPush || sl != qs.SleepMicros {
		t.Fatalf("producer mirror: fp %d/%d, sleep %d/%d", fp, qs.FailedPush, sl, qs.SleepMicros)
	}
}

// TestConservationPhoenix runs the same job on the fused engine, where
// every emitted pair is combined in place.
func TestConservationPhoenix(t *testing.T) {
	spec, emits := wcSpec(400)
	cfg := testConfig()
	cfg.Telemetry = &telemetry.Telemetry{Interval: 100 * time.Microsecond}

	res, err := phoenix.Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Telemetry
	if rep == nil {
		t.Fatal("Result.Telemetry is nil with Config.Telemetry set")
	}
	if rep.Engine != "phoenix" {
		t.Fatalf("engine %q", rep.Engine)
	}
	if rep.Totals.Emitted != emits || rep.Totals.Combined != emits {
		t.Fatalf("fused engine: emitted %d combined %d, want both %d",
			rep.Totals.Emitted, rep.Totals.Combined, emits)
	}
	if rep.Totals.Tasks == 0 {
		t.Fatal("no tasks counted")
	}
}

// TestEnginesAgreeUnderTelemetry guards against instrumentation changing
// results: both engines must produce identical output with telemetry on.
func TestEnginesAgreeUnderTelemetry(t *testing.T) {
	spec, _ := wcSpec(200)
	cfg := testConfig()
	cfg.Telemetry = telemetry.New()
	a, err := core.Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := phoenix.Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Pairs) != len(b.Pairs) {
		t.Fatalf("key counts differ: %d vs %d", len(a.Pairs), len(b.Pairs))
	}
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] {
			t.Fatalf("pair %d differs: %v vs %v", i, a.Pairs[i], b.Pairs[i])
		}
	}
}

// TestSamplerRaceCap2 hammers a capacity-2 ring from both sides while the
// sampler probes its depth at the highest rate and scrapes run
// concurrently — the test exists to fail under -race if the probe ever
// touches non-atomic queue state.
func TestSamplerRaceCap2(t *testing.T) {
	// With capacity 2 the producer hits a full ring on almost every push;
	// WaitBusy keeps it hammering the indices there instead of parked,
	// which is the traffic the probe must not race with.
	q := spsc.MustNew[int](2, spsc.WaitBusy)
	tel := &telemetry.Telemetry{Interval: 20 * time.Microsecond, MaxSamples: 128}
	tel.BeginRun("race")
	tel.RegisterQueue("cap2", q)
	defer tel.Stop()

	const n = 20000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			q.Push(i)
		}
		q.Close()
	}()
	go func() {
		defer wg.Done()
		for !q.Drained() {
			if _, ok := q.TryPop(); !ok {
				// On a single-CPU box a non-yielding spin holds the
				// processor for a whole preemption slice per empty poll.
				runtime.Gosched()
			}
		}
	}()
	// Concurrent scrapes exercise the exporter path against live pushes.
	for i := 0; i < 10; i++ {
		if err := tel.WritePrometheus(&bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	rep := tel.EndRun(nil)
	if rep.SampleCount == 0 {
		t.Fatal("sampler recorded nothing")
	}
	occ := rep.Queues[0].Occupancy
	if occ.Max < 0 || occ.Max > 1 {
		t.Fatalf("occupancy out of range: %+v", occ)
	}
}

// TestWorkerGoroutinesCarryPprofLabels captures a goroutine profile from
// inside a map task and asserts both worker classes are visible with
// their engine/role/worker labels — the property that makes CPU profiles
// segment mapper time from combiner time.
func TestWorkerGoroutinesCarryPprofLabels(t *testing.T) {
	var once sync.Once
	var profile bytes.Buffer
	spec, _ := wcSpec(400)
	inner := spec.Map
	spec.Map = func(line string, emit func(string, int)) {
		once.Do(func() {
			// Give combiners time to start, then snapshot all
			// goroutines with labels (debug=1 includes them).
			time.Sleep(2 * time.Millisecond)
			_ = pprof.Lookup("goroutine").WriteTo(&profile, 1)
		})
		inner(line, emit)
	}
	cfg := testConfig()
	if _, err := core.Run(spec, cfg); err != nil {
		t.Fatal(err)
	}
	out := profile.String()
	for _, want := range []string{`"engine":"ramr"`, `"role":"mapper"`, `"role":"combiner"`, `"worker":"0"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("goroutine profile missing label %s\n%s", want, out)
		}
	}

	// The fused engine labels its workers too.
	profile.Reset()
	once = sync.Once{}
	spec2, _ := wcSpec(400)
	inner2 := spec2.Map
	spec2.Map = func(line string, emit func(string, int)) {
		once.Do(func() { _ = pprof.Lookup("goroutine").WriteTo(&profile, 1) })
		inner2(line, emit)
	}
	if _, err := phoenix.Run(spec2, cfg); err != nil {
		t.Fatal(err)
	}
	if out := profile.String(); !strings.Contains(out, `"engine":"phoenix"`) {
		t.Fatalf("phoenix goroutine profile missing engine label\n%s", out)
	}
}

// TestTelemetryDisabledLeavesResultBare double-checks the nil path: no
// report, no sampler, no labels cost assertions — just absence.
func TestTelemetryDisabledLeavesResultBare(t *testing.T) {
	spec, _ := wcSpec(50)
	res, err := core.Run(spec, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry != nil {
		t.Fatal("Result.Telemetry set without Config.Telemetry")
	}
}

// TestPrometheusDuringLiveRun scrapes the exporter mid-run through the
// hooks' pre-reduce point, validating the text format while counters and
// probes are hot.
func TestPrometheusDuringLiveRun(t *testing.T) {
	spec, _ := wcSpec(200)
	cfg := testConfig()
	tel := &telemetry.Telemetry{Interval: 50 * time.Microsecond}
	cfg.Telemetry = tel
	var scraped bytes.Buffer
	cfg.Hooks = &mr.Hooks{PreReduce: func() {
		if err := tel.WritePrometheus(&scraped); err != nil {
			t.Errorf("live scrape: %v", err)
		}
	}}
	if _, err := core.Run(spec, cfg); err != nil {
		t.Fatal(err)
	}
	if scraped.Len() == 0 {
		t.Fatal("no live scrape happened")
	}
	if !strings.Contains(scraped.String(), "ramr_worker_pairs_emitted_total") {
		t.Fatalf("live scrape missing counters:\n%s", scraped.String())
	}
}
