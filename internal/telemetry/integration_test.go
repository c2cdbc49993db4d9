package telemetry_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
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

// shipping moves cfg onto a plan that ships pairs: the paper's pinning on
// the Haswell server preset puts each combiner on an SMT sibling of its
// first mapper (a pin on a CPU the host lacks is ignored), so the run is the
// ring pipeline. The arms named "one-cpu-grant" run on it; the name predates
// the placement rule, under which a one-CPU grant is a fused pool of one
// worker.
func shipping(cfg mr.Config, ship bool) mr.Config {
	if ship {
		cfg.Machine, cfg.Pin = topology.HaswellServer(), mr.PinRAMR
	}
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
// work, where no ring is built and every pair is folded in place, and on a
// plan that ships pairs (shipping), where nothing may be folded in place
// and every pair is a ring's.
func TestConservationRAMR(t *testing.T) {
	t.Run("conserving", func(t *testing.T) { conservationRAMR(t, false) })
	t.Run("one-cpu-grant", func(t *testing.T) { conservationRAMR(t, true) })
}

func conservationRAMR(t *testing.T, ship bool) {
	spec, emits := wcSpec(400)
	cfg := shipping(testConfig(), ship)
	cfg.Telemetry = telemetry.New()
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
	qs := res.QueueStats
	if qs != truth.stats {
		t.Fatalf("queue stats %+v, the %d rings counted %+v", qs, truth.rings, truth.stats)
	}
	if rep.Totals.Emitted != emits || rep.Totals.Combined != emits {
		t.Fatalf("telemetry emitted %d, combined %d, want both %d", rep.Totals.Emitted, rep.Totals.Combined, emits)
	}
	// A pair combined but never popped was folded where it was emitted.
	folded := rep.Totals.Combined - qs.Pops
	if qs.Pushes+folded != emits {
		t.Fatalf("%d pushed + %d folded in place, want %d emitted", qs.Pushes, folded, emits)
	}
	if qs.Pops != qs.Pushes {
		t.Fatalf("pops %d != pushes %d", qs.Pops, qs.Pushes)
	}
	if want := len(mr.Tasks(len(spec.Splits), cfg.TaskSize)); rep.Totals.Tasks != uint64(want) {
		t.Fatalf("telemetry counted %d tasks, want %d", rep.Totals.Tasks, want)
	}
	if ship && (folded != 0 || qs.BatchCalls == 0 || truth.rings != cfg.Mappers) {
		t.Fatalf("sibling plan: %d folded in place, %d batch calls, %d rings; want every pair through a ring and a ring per mapper",
			folded, qs.BatchCalls, truth.rings)
	}
	if !ship && (qs != (mr.QueueStats{}) || folded != emits || truth.rings != 0) {
		t.Fatalf("conserving: queue stats %+v, %d folded in place, %d rings; want no ring and every pair folded in place", qs, folded, truth.rings)
	}
	// The mappers' shards hold their rings' producer side.
	var fp, sl uint64
	for _, w := range rep.Workers {
		if w.Role == "mapper" {
			fp += w.Queue.FailedPush
			sl += w.Queue.SleepMicros
		}
	}
	if fp != truth.stats.FailedPush || sl != truth.stats.SleepMicros {
		t.Fatalf("mapper shards: fp %d/%d, sleep %d/%d", fp, truth.stats.FailedPush, sl, truth.stats.SleepMicros)
	}
}

// TestLedgerIdentity: a RAMR run's, a Phoenix++ run's and a stream
// session's statistics are views of one ledger, and the ledger is exact.
// Each runs conserving work and on a plan where a RAMR batch run ships
// pairs, each with and without a Telemetry, on tiny rings (16 slots, slabs
// of 3) so every wait and fold path is taken. In every case emitted equals
// the pairs the input holds. A batch run books every take, so its takes
// equal the task count, and its queue stats equal the sum of the rings' own
// snapshots on all seven fields: conserving it folds every pair where it is
// emitted and builds no ring, on a sibling plan RAMR folds none (Phoenix++
// never ships). A stream session's takes equal its split count, and on
// either plan it builds no ring and folds every pair where it is emitted.
// With a Telemetry, the report is exactly a view of the ledger
// (reportIsLedger), and its combiner rows' tasks are the ones combiners
// ran.
func TestLedgerIdentity(t *testing.T) {
	for _, arm := range []struct {
		name string
		ship bool
	}{{"conserving", false}, {"one-cpu-grant", true}} {
		for _, instrumented := range []bool{false, true} {
			name := fmt.Sprintf("%s/telemetry=%v", arm.name, instrumented)
			t.Run("batch/"+name, func(t *testing.T) { ledgerIdentityBatch(t, false, arm.ship, instrumented) })
			t.Run("phoenix/"+name, func(t *testing.T) { ledgerIdentityBatch(t, true, arm.ship, instrumented) })
			t.Run("stream/"+name, func(t *testing.T) { ledgerIdentityStream(t, arm.ship, instrumented) })
		}
	}
}

// reportIsLedger checks that a report is exactly a view of its run's
// ledger: its totals are the ledger's, and its rows sum to them.
func reportIsLedger(t *testing.T, tel *telemetry.Telemetry, rep *telemetry.Report) {
	t.Helper()
	want := telemetry.LedgerOf(tel).Totals()
	if rep.Totals != want {
		t.Fatalf("report totals %+v, ledger totals %+v", rep.Totals, want)
	}
	var sum telemetry.Totals
	for _, w := range rep.Workers {
		sum.Add(w.Totals)
	}
	if sum != want {
		t.Fatalf("%d worker entries sum to %+v, ledger totals %+v", len(rep.Workers), sum, want)
	}
}

// combinerTasks is the map tasks a report's combiner rows ran: a combine
// worker's of a fused pool. On a sibling plan a combiner slot runs none.
func combinerTasks(rep *telemetry.Report) uint64 {
	var n uint64
	for _, w := range rep.Workers {
		if w.Role == "combiner" {
			n += w.Tasks
		}
	}
	return n
}

// identityConfig is the tiny-ring configuration of TestLedgerIdentity,
// counting map tasks by the pool that ran them and collecting the rings'
// ground truth.
func identityConfig(ship, instrumented bool, truth *ringTruth, mapperTasks, slotTasks *atomic.Uint64) mr.Config {
	cfg := shipping(testConfig(), ship)
	cfg.QueueCapacity, cfg.EmitBatch, cfg.BatchSize = 16, 3, 4
	if instrumented {
		cfg.Telemetry = telemetry.New()
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

func ledgerIdentityBatch(t *testing.T, phoenix, ship, instrumented bool) {
	spec, emits := wcSpec(120)
	var truth ringTruth
	var mapperTasks, slotTasks atomic.Uint64
	cfg := identityConfig(ship, instrumented, &truth, &mapperTasks, &slotTasks)
	run := core.RunContext[string, string, int, int]
	if phoenix {
		run, ship = core.RunPhoenixContext[string, string, int, int], false
	}
	res, err := run(context.Background(), spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	qs := res.QueueStats
	if qs != truth.stats {
		t.Fatalf("ledger queue stats %+v, the %d rings counted %+v", qs, truth.rings, truth.stats)
	}
	if qs.Pops != qs.Pushes {
		t.Fatalf("%d pushed, %d popped", qs.Pushes, qs.Pops)
	}
	tasks := uint64(len(mr.Tasks(len(spec.Splits), cfg.TaskSize)))
	if res.Steal.TotalTasks() != tasks || mapperTasks.Load()+slotTasks.Load() != tasks {
		t.Fatalf("takes %d, mappers ran %d, combiners ran %d, want %d tasks",
			res.Steal.TotalTasks(), mapperTasks.Load(), slotTasks.Load(), tasks)
	}
	if ship && (qs.Pushes != emits || slotTasks.Load() != 0 || truth.rings != cfg.Mappers) {
		t.Fatalf("sibling plan pushed %d of %d pairs, combiners ran %d tasks, over %d rings; want every pair pushed, no task on a combiner and a ring per mapper",
			qs.Pushes, emits, slotTasks.Load(), truth.rings)
	}
	if !ship && (qs.Pushes != 0 || truth.rings != 0) {
		t.Fatalf("conserving run pushed %d pairs over %d rings, want 0 and no ring", qs.Pushes, truth.rings)
	}
	if !instrumented {
		return
	}
	rep := res.Telemetry
	if rep == nil || rep.Totals.Emitted != emits || rep.Totals.Combined != emits {
		t.Fatalf("report %+v, want %d pairs emitted and combined", rep, emits)
	}
	if got := combinerTasks(rep); got != slotTasks.Load() {
		t.Fatalf("combiner rows ran %d tasks, the combiners ran %d", got, slotTasks.Load())
	}
	reportIsLedger(t, cfg.Telemetry, rep)
}

func ledgerIdentityStream(t *testing.T, ship, instrumented bool) {
	spec, emits := wcSpec(120)
	var truth ringTruth
	var mapperTasks, slotTasks atomic.Uint64
	cfg := identityConfig(ship, instrumented, &truth, &mapperTasks, &slotTasks)
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
	if got := p.Stats().Elements; got != emits || truth.rings != 0 {
		t.Fatalf("%d elements over %d rings, want %d emitted and no ring", got, truth.rings, emits)
	}
	if mapperTasks.Load()+slotTasks.Load() != uint64(len(spec.Splits)) {
		t.Fatalf("mappers ran %d splits and combiners %d, want %d splits",
			mapperTasks.Load(), slotTasks.Load(), len(spec.Splits))
	}
	if !instrumented {
		return
	}
	rep := cfg.Telemetry.EndRun(nil)
	// Every pair folded where it was emitted: combined, never pushed.
	if rep.Totals.Emitted != emits || rep.Totals.Combined != emits || rep.Totals.Queue.Pushes != 0 {
		t.Fatalf("report totals %+v, want %d pairs emitted and combined, none pushed", rep.Totals, emits)
	}
	if got := combinerTasks(rep); got != slotTasks.Load() || rep.Totals.Steal.TotalTasks() != uint64(len(spec.Splits)) {
		t.Fatalf("combiner rows ran %d splits (the combiners ran %d), %d takes; want %d splits taken",
			got, slotTasks.Load(), rep.Totals.Steal.TotalTasks(), len(spec.Splits))
	}
	reportIsLedger(t, cfg.Telemetry, rep)
}

// TestReportMarshalsRingCounters: a run that ships pairs (a sibling plan:
// Haswell preset, the paper's pinning, grant {0, 28}) writes the four ring
// counters into its report's JSON totals, under queue, and a fused run
// writes them as zeros; the ring shares are computed from them. The shipping run has two mappers, one
// combiner, slabs of one pair and consume batches of 32 over two map tasks:
// the first pushes 5 pairs and then holds its ring open, the second waits
// and then pushes 40. The combiner polls the second ring empty before its
// first push and the first ring short when the second wakes it. A poll has
// no hook to wait on, so the two tasks are staggered by sleeps, 60 ms
// apart.
func TestReportMarshalsRingCounters(t *testing.T) {
	var calls atomic.Int32
	spec := &mr.Spec[int, int, int, int]{
		Name:   "ringcounters",
		Splits: []int{0, 1},
		Map: func(_ int, emit func(int, int)) {
			n := 5
			if calls.Add(1) == 2 {
				time.Sleep(60 * time.Millisecond)
				n = 40
			}
			for i := range n {
				emit(i, 1)
			}
			if n == 5 {
				time.Sleep(120 * time.Millisecond)
			}
		},
		Combine:      func(a, b int) int { return a + b },
		Reduce:       mr.IdentityReduce[int, int](),
		NewContainer: func() container.Container[int, int] { return container.NewHash[int, int]() },
		Less:         func(a, b int) bool { return a < b },
	}
	for _, ship := range []bool{true, false} {
		calls.Store(0)
		cfg := testConfig()
		if ship {
			cfg.Machine, cfg.Pin, cfg.CPUGrant = topology.HaswellServer(), mr.PinRAMR, []int{0, 28}
			cfg.Mappers, cfg.Combiners, cfg.TaskSize, cfg.EmitBatch, cfg.BatchSize = 2, 1, 1, 1, 32
		}
		cfg.Telemetry = telemetry.New()
		res, err := core.Run(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := res.Telemetry.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Totals struct{ Queue map[string]uint64 }
		}
		if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"Pushes", "Pops", "EmptyPolls", "ShortPolls"} {
			if v, ok := doc.Totals.Queue[k]; !ok || (v > 0) != ship {
				t.Fatalf("ships=%v (queue stats %+v): report JSON's totals.queue has %s = %d (present: %v)\n%s",
					ship, res.QueueStats, k, v, ok, b.String())
			}
		}
	}
}

// TestConservationPhoenix runs the same job on the fused engine, where
// every emitted pair is combined in place.
func TestConservationPhoenix(t *testing.T) {
	spec, emits := wcSpec(400)
	cfg := testConfig()
	cfg.Telemetry = telemetry.New()

	res, err := core.RunPhoenixContext(context.Background(), spec, cfg)
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
	b, err := core.RunPhoenixContext(context.Background(), spec, cfg)
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

// TestSamplerRaceCap2: a live scrape is the one sampler of a run's books
// left, and it reads the shards while their owners write them. The run
// ships every pair through capacity-2 rings in slabs of one, so producers
// meet a full ring on almost every push and book the failed pushes and
// parked time as they go, while scrapes run from a map hook and from a
// goroutine of their own; the test exists to fail under -race if a scrape
// ever touches a counter non-atomically.
func TestSamplerRaceCap2(t *testing.T) {
	spec, emits := wcSpec(200)
	cfg := shipping(testConfig(), true)
	cfg.QueueCapacity, cfg.EmitBatch, cfg.BatchSize = 2, 1, 1
	tel := telemetry.New()
	cfg.Telemetry = tel
	scrape := func() {
		if err := tel.WritePrometheus(io.Discard); err != nil {
			t.Error(err)
		}
	}
	cfg.Hooks = &mr.Hooks{MapTask: func(int) { scrape() }}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				scrape()
				// On a single-CPU box a non-yielding loop holds the
				// processor for a whole preemption slice per scrape.
				runtime.Gosched()
			}
		}
	}()
	res, err := core.Run(spec, cfg)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if qs := res.QueueStats; qs.Pushes != emits || qs.Pops != emits {
		t.Fatalf("queue stats %+v, want all %d pairs pushed and popped", qs, emits)
	}
	reportIsLedger(t, tel, res.Telemetry)
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
	if _, err := core.RunPhoenixContext(context.Background(), spec2, cfg); err != nil {
		t.Fatal(err)
	}
	if out := profile.String(); !strings.Contains(out, `"engine":"phoenix"`) {
		t.Fatalf("phoenix goroutine profile missing engine label\n%s", out)
	}
}

// TestTelemetryDisabledLeavesResultBare double-checks the nil path: no
// report, no labels cost assertions — just absence.
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
// hooks' pre-reduce point, validating the text format while the books are
// live.
func TestPrometheusDuringLiveRun(t *testing.T) {
	spec, _ := wcSpec(200)
	cfg := testConfig()
	tel := telemetry.New()
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
