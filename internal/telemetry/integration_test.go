package telemetry_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ramr/internal/container"
	"ramr/internal/core"
	"ramr/internal/mr"
	"ramr/internal/phoenix"
	"ramr/internal/spsc"
	"ramr/internal/stream"
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

// ringTruth sums the rings' own counters as Hooks.QueueObserver hands them
// over once the pipeline has shut down: the ground truth the ledger's view
// of a run must equal.
type ringTruth struct {
	mu    sync.Mutex
	stats mr.QueueStats
	rings int
}

func (r *ringTruth) observe(_ int, _ bool, s spsc.Stats) {
	r.mu.Lock()
	r.stats.Add(s)
	r.rings++
	r.mu.Unlock()
}

// TestConservationRAMR runs WordCount on the decoupled engine and checks
// the full conservation chain against the rings' own counters: every pair
// counted at the emit closure was fed to Combine, either through a ring
// (pushed == popped) or where it was emitted. It runs twice: conserving
// work, and under a one-CPU grant, where nothing may be folded in place and
// every pair is a ring's.
func TestConservationRAMR(t *testing.T) {
	t.Run("conserving", func(t *testing.T) { conservationRAMR(t, nil) })
	t.Run("one-cpu-grant", func(t *testing.T) { conservationRAMR(t, []int{0}) })
}

func conservationRAMR(t *testing.T, grant []int) {
	spec, emits := wcSpec(400)
	cfg := testConfig()
	cfg.CPUGrant = grant
	cfg.Telemetry = &telemetry.Telemetry{Interval: 100 * time.Microsecond}
	var truth ringTruth
	cfg.Hooks = &mr.Hooks{QueueObserver: truth.observe}

	res, err := core.Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Telemetry
	if rep == nil {
		t.Fatal("Result.Telemetry is nil with Config.Telemetry set")
	}
	qs, help := res.QueueStats, res.Help
	if qs != truth.stats || truth.rings != cfg.Mappers {
		t.Fatalf("queue stats %+v, the %d rings counted %+v", qs, truth.rings, truth.stats)
	}
	if rep.Totals.Emitted != emits || rep.Totals.Combined != emits {
		t.Fatalf("telemetry emitted %d, combined %d, want both %d", rep.Totals.Emitted, rep.Totals.Combined, emits)
	}
	if qs.Pushes+help.Pairs() != emits {
		t.Fatalf("%d pushed + %d folded in place, want %d emitted", qs.Pushes, help.Pairs(), emits)
	}
	if qs.Pops != qs.Pushes {
		t.Fatalf("pops %d != pushes %d", qs.Pops, qs.Pushes)
	}
	if want := len(mr.Tasks(len(spec.Splits), cfg.TaskSize)); rep.Totals.Tasks != uint64(want) {
		t.Fatalf("telemetry counted %d tasks, want %d", rep.Totals.Tasks, want)
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
	// The mappers' shards hold their rings' producer side.
	var fp, sl uint64
	for _, w := range rep.Workers {
		if w.Role == "mapper" {
			fp += w.FailedPush
			sl += w.SleepMicros
		}
	}
	if fp != truth.stats.FailedPush || sl != truth.stats.SleepMicros {
		t.Fatalf("mapper shards: fp %d/%d, sleep %d/%d", fp, truth.stats.FailedPush, sl, truth.stats.SleepMicros)
	}
}

// TestLedgerIdentity: a batch run's and a stream session's statistics are
// views of one ledger, and the ledger is exact. Each runs conserving work
// and under a one-CPU grant, each with and without a Telemetry, on tiny
// rings (16 slots, slabs of 3) so every wait and fold path is taken. In
// every case the queue stats equal the sum of the rings' own snapshots on
// all eight fields, emitted equals the pairs the input holds, and mapper
// takes plus helped tasks equal the task count.
func TestLedgerIdentity(t *testing.T) {
	for _, grant := range []struct {
		name string
		cpus []int
	}{{"conserving", nil}, {"one-cpu-grant", []int{0}}} {
		for _, sampled := range []bool{false, true} {
			name := fmt.Sprintf("%s/telemetry=%v", grant.name, sampled)
			t.Run("batch/"+name, func(t *testing.T) { ledgerIdentityBatch(t, grant.cpus, sampled) })
			t.Run("stream/"+name, func(t *testing.T) { ledgerIdentityStream(t, grant.cpus, sampled) })
		}
	}
}

// identityConfig is the tiny-ring configuration of TestLedgerIdentity,
// counting map tasks by the pool that ran them and collecting the rings'
// ground truth.
func identityConfig(grant []int, sampled bool, truth *ringTruth, mapperTasks, slotTasks *atomic.Uint64) mr.Config {
	cfg := testConfig()
	cfg.CPUGrant = grant
	cfg.QueueCapacity, cfg.EmitBatch, cfg.BatchSize = 16, 3, 4
	if sampled {
		cfg.Telemetry = &telemetry.Telemetry{Interval: 100 * time.Microsecond}
	}
	cfg.Hooks = &mr.Hooks{
		QueueObserver: truth.observe,
		MapTask: func(w int) {
			if w < cfg.Mappers {
				mapperTasks.Add(1)
			} else {
				slotTasks.Add(1)
			}
		},
	}
	return cfg
}

func ledgerIdentityBatch(t *testing.T, grant []int, sampled bool) {
	spec, emits := wcSpec(120)
	var truth ringTruth
	var mapperTasks, slotTasks atomic.Uint64
	cfg := identityConfig(grant, sampled, &truth, &mapperTasks, &slotTasks)
	res, err := core.Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	qs, help := res.QueueStats, res.Help
	if qs != truth.stats || truth.rings != cfg.Mappers {
		t.Fatalf("ledger queue stats %+v, the %d rings counted %+v", qs, truth.rings, truth.stats)
	}
	if qs.Pushes+help.Pairs() != emits || qs.Pops != qs.Pushes {
		t.Fatalf("%d pushed (%d popped) + %d folded in place, want %d emitted", qs.Pushes, qs.Pops, help.Pairs(), emits)
	}
	tasks := uint64(len(mr.Tasks(len(spec.Splits), cfg.TaskSize)))
	if res.Steal.TotalTasks() != mapperTasks.Load() || help.Tasks != slotTasks.Load() || res.Steal.TotalTasks()+help.Tasks != tasks {
		t.Fatalf("mapper takes %d (ran %d) + helped %d (ran %d), want %d tasks",
			res.Steal.TotalTasks(), mapperTasks.Load(), help.Tasks, slotTasks.Load(), tasks)
	}
	if grant != nil && help != (mr.HelpStats{}) {
		t.Fatalf("one-CPU grant helped: %+v", help)
	}
	if rep := res.Telemetry; sampled && (rep == nil || rep.Totals.Emitted != emits || rep.Totals.Combined != emits) {
		t.Fatalf("report %+v, want %d pairs emitted and combined", rep, emits)
	}
}

func ledgerIdentityStream(t *testing.T, grant []int, sampled bool) {
	spec, emits := wcSpec(120)
	var truth ringTruth
	var mapperTasks, slotTasks atomic.Uint64
	cfg := identityConfig(grant, sampled, &truth, &mapperTasks, &slotTasks)
	cfg.Stream = &mr.StreamSpec{Window: 1, MaxPending: len(spec.Splits)}
	p, err := stream.New(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	const chunks = 4
	per := len(spec.Splits) / chunks
	for c := 0; c < chunks; c++ {
		if _, err := p.Append(stream.Chunk[string]{Ts: int64(c), Splits: spec.Splits[c*per : (c+1)*per]}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := p.Close(ctx); err != nil {
		t.Fatal(err)
	}
	qs, help := p.QueueStats(), p.HelpStats()
	if qs != truth.stats || truth.rings != cfg.Mappers {
		t.Fatalf("ledger queue stats %+v, the %d rings counted %+v", qs, truth.rings, truth.stats)
	}
	if got := p.Stats().Elements; got != emits || qs.Pushes+help.Pairs() != emits || qs.Pops != qs.Pushes {
		t.Fatalf("%d elements, %d pushed (%d popped) + %d folded in place, want %d emitted", got, qs.Pushes, qs.Pops, help.Pairs(), emits)
	}
	if mapperTasks.Load()+help.Tasks != uint64(len(spec.Splits)) || help.Tasks != slotTasks.Load() || help.MapperPairs != 0 {
		t.Fatalf("mapper takes %d + helped %d (ran %d), want %d splits; help %+v",
			mapperTasks.Load(), help.Tasks, slotTasks.Load(), len(spec.Splits), help)
	}
	if grant != nil && help != (mr.HelpStats{}) {
		t.Fatalf("one-CPU grant helped: %+v", help)
	}
	if !sampled {
		return
	}
	if rep := cfg.Telemetry.EndRun(nil); rep.Totals.Emitted != emits || rep.Totals.Combined != emits {
		t.Fatalf("report totals %+v, want %d pairs emitted and combined", rep.Totals, emits)
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
	// spinning on Offer keeps it hammering the indices there instead of
	// parked, which is the traffic the probe must not race with.
	q := spsc.MustNew[int](2, spsc.WaitSleep)
	tel := &telemetry.Telemetry{Interval: 20 * time.Microsecond, MaxSamples: 128}
	tel.BeginRun(telemetry.NewLedger("race"))
	tel.RegisterQueue("cap2", q)
	defer tel.Stop()

	const n = 20000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			for !q.Offer([]int{i}) {
				runtime.Gosched()
			}
		}
		q.Close()
	}()
	go func() {
		defer wg.Done()
		for !q.Drained() {
			if q.ConsumeBatch(1, true, func([]int) {}) == 0 {
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
