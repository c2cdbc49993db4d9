// Benchmarks regenerating every table and figure of the paper's evaluation
// (one Benchmark per Table/Figure, as indexed in DESIGN.md) plus ablation
// benchmarks for the design decisions the paper calls out. Engine
// comparisons execute the real runtimes on this host with CI-scaled
// inputs; platform-dependent figures (Figs. 5-9 on the paper's Haswell and
// Xeon Phi) additionally have deterministic model-based regenerators,
// benchmarked through the same harness code path `ramrbench` uses.
package ramr_test

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"ramr/internal/container"
	"ramr/internal/harness"
	"ramr/internal/mr"
	"ramr/internal/obs"
	"ramr/internal/perfmodel"
	"ramr/internal/simarch"
	"ramr/internal/spsc"
	"ramr/internal/synth"
	"ramr/internal/topology"
	"ramr/internal/workloads"
)

const benchSeed = 42

// benchConfig returns a host configuration with the given ratio.
func benchConfig(ratio int) mr.Config {
	cfg := mr.DefaultConfig()
	cfg.Mappers, cfg.Combiners = mr.SplitWorkers(max(runtime.GOMAXPROCS(0), 2), ratio)
	return cfg
}

// pipelined keeps cfg on the paper's map → ring → combine pipeline, for the
// benchmarks that measure the ring: a run whose plan puts no combiner on an
// SMT sibling of its mappers folds every pair where it is emitted, and its
// ring knobs time nothing (core.Plan.ShipsPairs). The paper's pinning on the
// Haswell server preset ships; a pin on a CPU the host lacks is ignored.
func pipelined(cfg mr.Config) mr.Config {
	cfg.Machine, cfg.Pin, cfg.CPUGrant = topology.HaswellServer(), mr.PinRAMR, nil
	return cfg
}

// benchJob builds one app at PHI/Small scale (the smallest Table I cell).
func benchJob(b *testing.B, app string, stress bool) *workloads.Job {
	b.Helper()
	kind := workloads.DefaultContainer(app)
	if stress {
		kind = workloads.StressContainer(app)
	}
	job, err := workloads.NewJob(app, workloads.PHI, workloads.Small, kind, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	return job
}

func runJob(b *testing.B, job *workloads.Job, eng workloads.Engine, cfg mr.Config) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := job.Run(eng, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Inputs measures generation of every Small input (the
// Table I grid's smallest column).
func BenchmarkTable1Inputs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, app := range workloads.AppNames() {
			if _, err := workloads.NewJob(app, workloads.PHI, workloads.Small,
				workloads.DefaultContainer(app), benchSeed); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig1PhaseBreakdown runs the whole suite on the Phoenix engine
// and reports the aggregate map-combine share (Fig. 1).
func BenchmarkFig1PhaseBreakdown(b *testing.B) {
	jobs := make([]*workloads.Job, 0, 6)
	for _, app := range workloads.AppNames() {
		jobs = append(jobs, benchJob(b, app, false))
	}
	cfg := benchConfig(1)
	b.ResetTimer()
	var mc, total float64
	for i := 0; i < b.N; i++ {
		for _, job := range jobs {
			info, err := job.Run(workloads.EnginePhoenix, cfg)
			if err != nil {
				b.Fatal(err)
			}
			mc += info.Phases.MapCombine.Seconds()
			total += info.Phases.Total().Seconds()
		}
	}
	if total > 0 {
		b.ReportMetric(mc/total*100, "mapcombine%")
	}
}

// BenchmarkFig4SyntheticRatio sweeps the mapper/combiner ratio on the
// synthetic suite with a memory-intensive combine (Fig. 4).
func BenchmarkFig4SyntheticRatio(b *testing.B) {
	params := synth.DefaultParams()
	params.Elements = 20_000
	params.CombineKernel = synth.Kernel{Kind: synth.Memory, Intensity: 30}
	job := synth.NewJob(params, benchSeed)
	for _, ratio := range []int{3, 2, 1} {
		b.Run(fmt.Sprintf("ratio=%d", ratio), func(b *testing.B) {
			runJob(b, job, workloads.EngineRAMR, benchConfig(ratio))
		})
	}
	b.Run("phoenix", func(b *testing.B) {
		runJob(b, job, workloads.EnginePhoenix, benchConfig(1))
	})
}

// BenchmarkFig5PinningPolicy compares the three placement policies with
// the native engine (Fig. 5's native counterpart; the Haswell-model
// figure is regenerated by `ramrbench fig5`).
func BenchmarkFig5PinningPolicy(b *testing.B) {
	job := benchJob(b, "KM", false)
	for _, pin := range []mr.PinPolicy{mr.PinRAMR, mr.PinRoundRobin, mr.PinNone} {
		b.Run(pin.String(), func(b *testing.B) {
			cfg := benchConfig(1)
			cfg.Pin = pin
			runJob(b, job, workloads.EngineRAMR, cfg)
		})
	}
}

// BenchmarkFig6BatchedConsume compares single-element against batched
// consume on the native engine's pipeline (Fig. 6).
func BenchmarkFig6BatchedConsume(b *testing.B) {
	job := benchJob(b, "HG", false)
	for _, batch := range []int{1, mr.DefaultBatchSize} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			cfg := pipelined(benchConfig(1))
			cfg.BatchSize = batch
			runJob(b, job, workloads.EngineRAMR, cfg)
		})
	}
}

// BenchmarkFig7BatchSize sweeps the consume batch size (Fig. 7) on the
// pipeline.
func BenchmarkFig7BatchSize(b *testing.B) {
	job := benchJob(b, "WC", false)
	for _, batch := range []int{1, 20, 100, 500, 1000, 5000} {
		b.Run(fmt.Sprintf("b=%d", batch), func(b *testing.B) {
			cfg := pipelined(benchConfig(1))
			cfg.BatchSize = batch
			runJob(b, job, workloads.EngineRAMR, cfg)
		})
	}
}

// engineComparison benches every app on both engines under one container
// configuration — the native counterpart of Figs. 8a/8b.
func engineComparison(b *testing.B, stress bool) {
	for _, app := range workloads.AppNames() {
		job := benchJob(b, app, stress)
		b.Run(app+"/RAMR", func(b *testing.B) {
			runJob(b, job, workloads.EngineRAMR, benchConfig(2))
		})
		b.Run(app+"/Phoenix", func(b *testing.B) {
			runJob(b, job, workloads.EnginePhoenix, benchConfig(1))
		})
	}
}

// BenchmarkFig8aHaswellDefault is the native engine comparison with
// default containers (Fig. 8a; platform factors via `ramrbench fig8a`).
func BenchmarkFig8aHaswellDefault(b *testing.B) { engineComparison(b, false) }

// BenchmarkFig8bHaswellHash is the native engine comparison with
// memory-intensive containers (Fig. 8b).
func BenchmarkFig8bHaswellHash(b *testing.B) { engineComparison(b, true) }

// BenchmarkFig9aPhiDefault regenerates the Xeon Phi default-container
// figure through the platform model (Fig. 9a).
func BenchmarkFig9aPhiDefault(b *testing.B) { benchHarness(b, "fig9a") }

// BenchmarkFig9bPhiHash regenerates the Xeon Phi memory-intensive figure
// through the platform model (Fig. 9b).
func BenchmarkFig9bPhiHash(b *testing.B) { benchHarness(b, "fig9b") }

func benchHarness(b *testing.B, id string) {
	b.Helper()
	exp, err := harness.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	opt := harness.DefaultOptions()
	opt.Quick = true
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10Suitability measures the performance-counter model over
// the whole suite (Fig. 10).
func BenchmarkFig10Suitability(b *testing.B) {
	m := topology.HaswellServer()
	for i := 0; i < b.N; i++ {
		for _, app := range perfmodel.AllApps() {
			if _, err := perfmodel.Suitability(m, app, workloads.DefaultContainer(app)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationPushPolicy compares the two things a producer can do at
// a full ring: give the processor up and be woken by its consumer (park,
// what PushBatch does; the paper slept on a timer, §III-A "sleep on failed
// push") or busy-wait, the policy the paper abandoned, written here as a
// spin on Offer. It runs at ring level, against a consumer slower than its
// producer, so the ring is full and the policy runs: inside an engine run
// on a grant with a CPU per worker a mapper folds every pair where it emits
// it and never touches its ring. failed/op counts the producer's looks at a
// full ring (a spin's rounds), parked-us/op the time it spent parked.
func BenchmarkAblationPushPolicy(b *testing.B) {
	const n, slab = 1 << 16, mr.DefaultEmitBatch
	for _, tc := range []struct {
		name string
		push func(q *spsc.Queue[int], vs []int)
	}{
		{"park", (*spsc.Queue[int]).PushBatch},
		{"busy-wait", func(q *spsc.Queue[int], vs []int) {
			for !q.Offer(vs) {
				runtime.Gosched()
			}
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var failed, parked uint64
			for i := 0; i < b.N; i++ {
				q := spsc.MustNew[int](4096, spsc.WaitSleep)
				done := make(chan struct{})
				go func() {
					defer close(done)
					sum := 0
					slow := func(seg []int) {
						for _, v := range seg {
							for k := 0; k < 16; k++ { // a combine costlier than the emit
								sum += v ^ k
							}
						}
					}
					for !q.Drained() {
						if q.ConsumeBatch(512, q.Closed(), slow) == 0 {
							runtime.Gosched()
						}
					}
					_ = sum
				}()
				vs := make([]int, slab)
				for v := 0; v < n; v += slab {
					for j := range vs {
						vs[j] = v + j
					}
					tc.push(q, vs)
				}
				q.Close()
				<-done
				s := q.Snapshot()
				failed += s.FailedPush
				parked += s.SleepMicros
			}
			b.ReportMetric(float64(failed)/float64(b.N), "failed/op")
			b.ReportMetric(float64(parked)/float64(b.N), "parked-us/op")
		})
	}
}

// BenchmarkAblationQueueCap sweeps the ring capacity around the default on
// a ring-bound app (HG) and a map-bound one (WC), at the size the
// repository benchmark runs them, on the pipeline: below 16384 slots half a
// ring drains faster than a parked producer can be woken and refill it.
func BenchmarkAblationQueueCap(b *testing.B) {
	for _, app := range []string{"HG", "WC"} {
		job, err := workloads.NewJob(app, workloads.HWL, workloads.Large, workloads.DefaultContainer(app), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, cap := range []int{4096, 8192, 16384, 32768, 65536} {
			b.Run(fmt.Sprintf("%s/cap=%d", app, cap), func(b *testing.B) {
				cfg := pipelined(benchConfig(1))
				cfg.QueueCapacity = cap
				runJob(b, job, workloads.EngineRAMR, cfg)
			})
		}
	}
}

// BenchmarkHandoffGeometry is the sweep mr.DefaultConfig's ring geometry
// is read from (EXPERIMENTS.md "Handoff waits and ring geometry on Go"):
// ring capacity x emit slab x consume batch over the repository
// benchmark's batch_combine app list, plus the old and new default points
// on its batch_map list, which must not care. Every cell runs the pipeline,
// where the geometry acts (see pipelined). It reports the median run,
// because this host's clock speed flips between two modes from one second
// to the next; run it with a fixed count, e.g. -benchtime 9x.
func BenchmarkHandoffGeometry(b *testing.B) {
	type entry struct {
		name, app string
		kind      container.Kind
		synth     *synth.Params
	}
	mapSynth := func(skew float64) *synth.Params {
		p := synth.DefaultParams()
		p.Elements = 100_000
		p.MapKernel = synth.Kernel{Kind: synth.CPU, Intensity: 60}
		p.CombineKernel = synth.Kernel{Kind: synth.CPU, Intensity: 2}
		p.Skew = skew
		return &p
	}
	build := func(e entry) *workloads.Job {
		if e.synth != nil {
			return synth.NewJob(*e.synth, benchSeed)
		}
		job, err := workloads.NewJob(e.app, workloads.HWL, workloads.Large, e.kind, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		return job
	}
	cell := func(e entry, job *workloads.Job, cap, emit, batch int) {
		b.Run(fmt.Sprintf("%s/cap=%d/emit=%d/batch=%d", e.name, cap, emit, batch), func(b *testing.B) {
			cfg := pipelined(mr.DefaultConfig())
			cfg.QueueCapacity, cfg.EmitBatch, cfg.BatchSize = cap, emit, batch
			runs := make([]float64, 0, b.N)
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if _, err := job.Run(workloads.EngineRAMR, cfg); err != nil {
					b.Fatal(err)
				}
				runs = append(runs, float64(time.Since(t0).Microseconds())/1e3)
			}
			sort.Float64s(runs)
			b.ReportMetric(runs[len(runs)/2], "p50-ms")
		})
	}
	for _, e := range []entry{
		{name: "WC.hash", app: "WC", kind: container.KindHash},
		{name: "WC.fixedhash", app: "WC", kind: container.KindFixedHash},
		{name: "HG.fixedarray", app: "HG", kind: container.KindFixedArray},
		{name: "HG.fixedhash", app: "HG", kind: container.KindFixedHash},
		{name: "LR.fixedarray", app: "LR", kind: container.KindFixedArray},
	} {
		job := build(e)
		for _, cap := range []int{4096, 8192, 16384, 32768, 65536} {
			for _, emit := range []int{16, 64, 256} {
				for _, batch := range []int{250, 1000, 4000} {
					cell(e, job, cap, emit, batch)
				}
			}
		}
	}
	for _, e := range []entry{
		{name: "MM", app: "MM", kind: container.KindFixedArray},
		{name: "KM", app: "KM", kind: container.KindFixedArray},
		{name: "PCA", app: "PCA", kind: container.KindFixedArray},
		{name: "SYNTH", synth: mapSynth(0)},
		{name: "SYNTH.skew", synth: mapSynth(1.5)},
	} {
		job := build(e)
		cell(e, job, 8192, 64, 1000) // the geometry before this sweep (5000 slots rounds up to 8192)
		cell(e, job, mr.DefaultConfig().QueueCapacity, mr.DefaultEmitBatch, mr.DefaultBatchSize)
	}
}

// BenchmarkAblationContainers compares the three intermediate containers
// on one app (Phoenix++'s container exploration).
func BenchmarkAblationContainers(b *testing.B) {
	for _, kind := range []container.Kind{container.KindFixedArray, container.KindFixedHash, container.KindHash} {
		job, err := workloads.NewJob("HG", workloads.PHI, workloads.Small, kind, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(kind.String(), func(b *testing.B) {
			runJob(b, job, workloads.EngineRAMR, benchConfig(1))
		})
	}
}

// BenchmarkAblationTaskQueue compares per-locality-group task queues
// (Haswell model: two groups) against a single global queue (flat model).
func BenchmarkAblationTaskQueue(b *testing.B) {
	job := benchJob(b, "WC", false)
	for _, tc := range []struct {
		name    string
		machine *topology.Machine
	}{
		{"locality-groups", topology.HaswellServer()},
		{"single-global", topology.Flat(runtime.GOMAXPROCS(0))},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := benchConfig(1)
			cfg.Machine = tc.machine
			cfg.Pin = mr.PinNone // placement fixed; isolate the queue layout
			runJob(b, job, workloads.EngineRAMR, cfg)
		})
	}
}

// BenchmarkAblationQueueKind compares the SPSC ring against a Go channel
// as the mapper-to-combiner pipe (microbenchmark).
func BenchmarkAblationQueueKind(b *testing.B) {
	const n = 1 << 16
	b.Run("spsc", func(b *testing.B) {
		one := make([]int, 1)
		for i := 0; i < b.N; i++ {
			q := spsc.MustNew[int](4096, spsc.WaitSleep)
			done := make(chan struct{})
			go func() {
				defer close(done)
				var sum int
				for !q.Drained() {
					consumed := q.ConsumeBatch(512, q.Closed(), func(batch []int) {
						for _, v := range batch {
							sum += v
						}
					})
					if consumed == 0 {
						runtime.Gosched() // let the producer run (vital on 1 CPU)
					}
				}
				_ = sum
			}()
			for v := 0; v < n; v++ {
				one[0] = v
				q.PushBatch(one)
			}
			q.Close()
			<-done
		}
	})
	b.Run("channel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ch := make(chan int, 4096)
			done := make(chan struct{})
			go func() {
				defer close(done)
				var sum int
				for v := range ch {
					sum += v
				}
				_ = sum
			}()
			for v := 0; v < n; v++ {
				ch <- v
			}
			close(ch)
			<-done
		}
	})
}

// BenchmarkAblationTaskSize sweeps the splits-per-task knob (§III: "large
// task sizes result in substandard load balancing, while small task sizes
// result in non-negligible library overhead").
func BenchmarkAblationTaskSize(b *testing.B) {
	job := benchJob(b, "LR", false)
	for _, ts := range []int{1, 4, 16, 64, 256} {
		b.Run(fmt.Sprintf("task=%d", ts), func(b *testing.B) {
			cfg := benchConfig(1)
			cfg.TaskSize = ts
			runJob(b, job, workloads.EngineRAMR, cfg)
		})
	}
}

// BenchmarkSimulators times one evaluation of the closed-form platform
// model, the estimator behind every modelled figure.
func BenchmarkSimulators(b *testing.B) {
	m := topology.HaswellServer()
	w, err := simarch.WorkloadFor(m, "KM", container.KindFixedArray)
	if err != nil {
		b.Fatal(err)
	}
	cfg := simarch.Config{Mappers: 28, Combiners: 28, Pin: mr.PinRAMR, BatchSize: 1000, QueueCap: 5000}
	b.Run("analytic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := simarch.SimulateRAMR(m, w, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- SPSC fast path (ISSUE 1: cached indices + producer-side batching) ---

// uncachedRef preserves the seed's queue construction — the atomic head
// consulted on every push, the atomic tail on every consume attempt, no
// index caches, no batch publish — as the reference baseline the
// cached-index ring is measured against. Kept minimal: a single-element
// tryPush + batched consume, int elements.
type uncachedRef struct {
	buf  []int
	mask uint64
	_    [64]byte
	head atomic.Uint64
	_    [64]byte
	tail atomic.Uint64
	_    [64]byte
	done atomic.Bool
}

func newUncachedRef(capacity int) *uncachedRef {
	n := uint64(1)
	for n < uint64(capacity) {
		n <<= 1
	}
	return &uncachedRef{buf: make([]int, n), mask: n - 1}
}

func (q *uncachedRef) tryPush(v int) bool {
	t := q.tail.Load()
	if t-q.head.Load() == uint64(len(q.buf)) {
		return false
	}
	q.buf[t&q.mask] = v
	q.tail.Store(t + 1)
	return true
}

func (q *uncachedRef) consumeBatch(batch int, force bool, f func([]int)) int {
	h := q.head.Load()
	avail := q.tail.Load() - h
	if avail == 0 {
		return 0
	}
	take := uint64(batch)
	if avail < take {
		if !force {
			return 0
		}
		take = avail
	}
	consumed := uint64(0)
	for consumed < take {
		start := (h + consumed) & q.mask
		run := take - consumed
		if room := uint64(len(q.buf)) - start; run > room {
			run = room
		}
		f(q.buf[start : start+run])
		consumed += run
	}
	q.head.Store(h + consumed)
	return int(consumed)
}

func (q *uncachedRef) drained() bool {
	return q.done.Load() && q.head.Load() == q.tail.Load()
}

const spscBenchN = 1 << 17

// reportPairsPerSec converts an elements-moved count into the throughput
// metric EXPERIMENTS.md records.
func reportPairsPerSec(b *testing.B, moved int) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(moved)*float64(b.N)/s, "pairs/s")
	}
}

// BenchmarkSPSCPush compares single-element producer throughput of the
// seed's uncached ring against the cached-index ring's PushBatch of one
// element, with an identical 512-element batched consumer.
func BenchmarkSPSCPush(b *testing.B) {
	b.Run("uncached-ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := newUncachedRef(4096)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for !q.drained() {
					if q.consumeBatch(512, q.done.Load(), func([]int) {}) == 0 {
						runtime.Gosched()
					}
				}
			}()
			for v := 0; v < spscBenchN; v++ {
				for !q.tryPush(v) {
					runtime.Gosched()
				}
			}
			q.done.Store(true)
			<-done
		}
		reportPairsPerSec(b, spscBenchN)
	})
	b.Run("cached", func(b *testing.B) {
		one := make([]int, 1)
		for i := 0; i < b.N; i++ {
			q := spsc.MustNew[int](4096, spsc.WaitSleep)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for !q.Drained() {
					if q.ConsumeBatch(512, q.Closed(), func([]int) {}) == 0 {
						runtime.Gosched()
					}
				}
			}()
			for v := 0; v < spscBenchN; v++ {
				one[0] = v
				q.PushBatch(one)
			}
			q.Close()
			<-done
		}
		reportPairsPerSec(b, spscBenchN)
	})
}

// BenchmarkSPSCPushBatch sweeps the producer block size on the cached ring:
// b=1 degenerates to per-element publishes, larger blocks amortize the
// shared tail store (and its cross-core traffic) over the block.
func BenchmarkSPSCPushBatch(b *testing.B) {
	for _, size := range []int{1, 8, 64, 256, 1024} {
		b.Run(fmt.Sprintf("b=%d", size), func(b *testing.B) {
			block := make([]int, size)
			for i := 0; i < b.N; i++ {
				q := spsc.MustNew[int](4096, spsc.WaitSleep)
				done := make(chan struct{})
				go func() {
					defer close(done)
					for !q.Drained() {
						if q.ConsumeBatch(512, q.Closed(), func([]int) {}) == 0 {
							runtime.Gosched()
						}
					}
				}()
				for v := 0; v < spscBenchN; v += size {
					for j := range block {
						block[j] = v + j
					}
					q.PushBatch(block)
				}
				q.Close()
				<-done
			}
			reportPairsPerSec(b, spscBenchN)
		})
	}
}

// --- Work stealing (DESIGN.md §11: distance-ordered chunked stealing) ---

// BenchmarkSkewSteal sweeps the zipf exponent of the skewed synthetic
// input with chunked stealing on and off — the EXPERIMENTS.md straggler
// recipe. Split sizes and keys are zipf-drawn with the heavy splits
// clustered in locality group 0's seed range, so the static baseline
// (StealOff) leaves group 0's mappers grinding the backlog alone while
// group 1 idles; chunked stealing drains it across the boundary. The
// per-run map-combine time is reported as mapcombine-ms, and every
// stealing run must leave the counters conserved (tasks stolen == tasks
// executed remotely) and, under skew, nonzero.
func BenchmarkSkewSteal(b *testing.B) {
	for _, s := range []float64{0, 1.2, 1.5} {
		params := synth.DefaultParams()
		params.Elements = 30_000
		params.Skew = s
		job := synth.NewJob(params, benchSeed)
		for _, pol := range []mr.StealPolicy{mr.StealOff, mr.StealChunked} {
			b.Run(fmt.Sprintf("s=%.1f/%v", s, pol), func(b *testing.B) {
				cfg := mr.DefaultConfig()
				// Fixed worker counts on the fixed Fig. 3 machine so group
				// structure (and thus steal pressure) is host-independent;
				// PinNone keeps mapper i in group i % 2 on any host.
				cfg.Mappers = 4
				cfg.Combiners = 2
				cfg.Machine = topology.Fig3Example()
				cfg.Pin = mr.PinNone
				cfg.Steal = pol
				var mapCombine float64
				var stolen, executed uint64
				for i := 0; i < b.N; i++ {
					info, err := job.Run(workloads.EngineRAMR, cfg)
					if err != nil {
						b.Fatal(err)
					}
					mapCombine += info.Phases.MapCombine.Seconds()
					if !info.Steal.Balanced() {
						b.Fatalf("steal counters unbalanced: %s", info.Steal.String())
					}
					stolen += info.Steal.StolenTasks()
					executed += info.Steal.RemoteExecuted
				}
				b.ReportMetric(mapCombine/float64(b.N)*1e3, "mapcombine-ms")
				switch {
				case pol == mr.StealOff && stolen != 0:
					b.Fatalf("static baseline stole %d tasks", stolen)
				case pol == mr.StealChunked && s > 1 && stolen == 0:
					b.Fatal("skewed input provoked no steals")
				case stolen != executed:
					b.Fatalf("conservation: %d stolen vs %d executed remotely", stolen, executed)
				}
			})
		}
	}
}

// BenchmarkObsLifecycle is the tracing before/after, StealOff-style: the
// same WC job run bare (nil recorder — the disabled path) and with a
// recorder taking both the lifecycle spans and the worker lanes. The off
// configuration self-asserts the obs package's nil-receiver contract: a
// disabled recorder's and a disabled track's calls must be allocation-free,
// so leaving tracing off costs the engine nothing.
func BenchmarkObsLifecycle(b *testing.B) {
	job := benchJob(b, "WC", false)
	for _, traced := range []bool{false, true} {
		b.Run(fmt.Sprintf("traced=%v", traced), func(b *testing.B) {
			if !traced {
				if avg := testing.AllocsPerRun(1000, func() {
					var off *obs.Recorder
					end := off.Span("noop", nil)
					end()
					off.Instant("noop", nil)
					off.SpanAt("noop", time.Time{}, time.Time{}, nil)
					track := off.Worker("mapper", 3)
					track.Span("task", obs.Int("splits", 4))()
					track.Publish()
				}); avg != 0 {
					b.Fatalf("disabled recorder allocated %.2f/op; nil path must be free", avg)
				}
			}
			var wall float64
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(1)
				var rec *obs.Recorder
				if traced {
					rec = obs.New("bench")
					cfg.Trace = rec
				}
				end := rec.Span("execute", nil)
				info, err := job.Run(workloads.EngineRAMR, cfg)
				end()
				if err != nil {
					b.Fatal(err)
				}
				wall += info.Wall.Seconds()
				if traced {
					rec.Finish("done")
					var buf bytes.Buffer
					if err := rec.WriteChromeTrace(&buf); err != nil {
						b.Fatal(err)
					}
					if buf.Len() == 0 {
						b.Fatal("traced run exported an empty trace")
					}
				}
			}
			b.ReportMetric(wall/float64(b.N)*1e3, "wall-ms")
		})
	}
}

// BenchmarkSPSCEmitBatch is the engine-level before/after of producer-side
// batching on the two queue-heaviest apps, on the pipeline: EmitBatch=1 is
// the seed's per-pair publish, EmitBatch=64 the batched default.
func BenchmarkSPSCEmitBatch(b *testing.B) {
	for _, app := range []string{"WC", "HG"} {
		job := benchJob(b, app, false)
		for _, eb := range []int{1, mr.DefaultEmitBatch} {
			b.Run(fmt.Sprintf("%s/emit=%d", app, eb), func(b *testing.B) {
				cfg := pipelined(benchConfig(1))
				cfg.EmitBatch = eb
				runJob(b, job, workloads.EngineRAMR, cfg)
			})
		}
	}
}
