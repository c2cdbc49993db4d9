package core

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"

	"ramr/internal/container"
	"ramr/internal/mr"
	"ramr/internal/telemetry"
	"ramr/internal/topology"
	"ramr/internal/tuner"
)

// skewedHistogramSpec builds the tuner-convergence workload: a histogram
// whose keys follow a squared-uniform distribution, so a few hot buckets
// absorb most of the mass — the shape where combiner provisioning matters
// (hot keys make combine cheap per pair, so a statically oversized pool
// mostly starves).
func skewedHistogramSpec(splits, perSplit, keys int) *mr.Spec[int64, int, int, int] {
	seeds := make([]int64, splits)
	for i := range seeds {
		seeds[i] = int64(i) + 1
	}
	return &mr.Spec[int64, int, int, int]{
		Name:   "skewhist",
		Splits: seeds,
		Map: func(seed int64, emit func(int, int)) {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perSplit; i++ {
				u := rng.Float64()
				// A few flops of "pixel preprocessing" per element keep
				// map compute-bound relative to the trivial combine, the
				// regime where combiner over-provisioning actually hurts.
				x := u
				for w := 0; w < 4; w++ {
					x = math.Sqrt(x*x + u)
				}
				if x < 0 {
					panic("unreachable")
				}
				emit(int(u*u*float64(keys)), 1)
			}
		},
		Combine:      func(a, b int) int { return a + b },
		Reduce:       mr.IdentityReduce[int, int](),
		NewContainer: func() container.Container[int, int] { return container.NewFixedArray[int](keys) },
	}
}

// medianRun executes the spec five times and returns the median wall time.
func medianRun(t *testing.T, spec *mr.Spec[int64, int, int, int], cfg mr.Config) (time.Duration, *mr.Result[int, int]) {
	t.Helper()
	var last *mr.Result[int, int]
	times := make([]time.Duration, 5)
	for i := range times {
		start := time.Now()
		res, err := Run(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		times[i] = time.Since(start)
		last = res
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[2], last
}

// TestTunerConvergence is the EXPERIMENTS.md "tuner convergence" recipe:
// it sweeps the static combiner count on a skewed histogram, then runs the
// online tuner from the worst static configuration and reports how close
// the tuned run lands to the best static one, with the full epoch log.
// Gated behind an env var because it is a measurement, not a correctness
// check:
//
//	RAMR_CONVERGENCE=1 go test -run TestTunerConvergence -v ./internal/core/
func TestTunerConvergence(t *testing.T) {
	if os.Getenv("RAMR_CONVERGENCE") == "" {
		t.Skip("set RAMR_CONVERGENCE=1 to run the tuner-convergence measurement")
	}
	spec := skewedHistogramSpec(64, 60_000, 256)
	base := mr.DefaultConfig()
	base.Mappers = 4
	base.QueueCapacity = 1024
	base.BatchSize = 100
	base.Machine = topology.Flat(4)
	base.Pin = mr.PinNone

	type point struct {
		combiners int
		wall      time.Duration
	}
	var best, worst point
	for c := 1; c <= base.Mappers; c++ {
		cfg := base
		cfg.Combiners = c
		wall, _ := medianRun(t, spec, cfg)
		fmt.Printf("static combiners=%d: %v\n", c, wall)
		if best.wall == 0 || wall < best.wall {
			best = point{c, wall}
		}
		if wall > worst.wall {
			worst = point{c, wall}
		}
	}

	cfg := base
	cfg.Combiners = worst.combiners
	// A 500µs sampling interval keeps the controller clock cheap on small
	// hosts (the default 200µs steals noticeable time on one core);
	// EpochTicks 8 keeps the epoch length at the default ~4ms.
	cfg.Telemetry = telemetry.New()
	cfg.Telemetry.Interval = 500 * time.Microsecond
	cfg.Tuner = &tuner.Config{EpochTicks: 8}

	// Final comparison: re-measure the winning static point and the tuned
	// run strictly interleaved, so slow drift on a shared host hits both
	// sides equally instead of whichever phase ran later.
	bestCfg := base
	bestCfg.Combiners = best.combiners
	staticTimes := make([]time.Duration, 5)
	tunedTimes := make([]time.Duration, 5)
	var res *mr.Result[int, int]
	for i := range staticTimes {
		start := time.Now()
		if _, err := Run(spec, bestCfg); err != nil {
			t.Fatal(err)
		}
		staticTimes[i] = time.Since(start)
		start = time.Now()
		r, err := Run(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tunedTimes[i] = time.Since(start)
		res = r
	}
	sort.Slice(staticTimes, func(i, j int) bool { return staticTimes[i] < staticTimes[j] })
	sort.Slice(tunedTimes, func(i, j int) bool { return tunedTimes[i] < tunedTimes[j] })
	wall, bestWall := tunedTimes[2], staticTimes[2]
	fmt.Printf("tuned (start combiners=%d, seed 42): %v  (best static %v with combiners=%d, ratio %.2f)\n",
		worst.combiners, wall, bestWall, best.combiners, float64(wall)/float64(bestWall))
	if res.TunerReport == nil {
		t.Fatal("tuned run attached no TunerReport")
	}
	for _, d := range res.TunerReport.Epochs {
		fmt.Printf("  epoch %2d %-8s combiners=%d batch=%-5d occ_p90=%.2f failed_push=%.3f short_poll=%.2f rate=%.0f pairs/tick\n",
			d.Epoch, d.Action, d.Settings.Combiners, d.Settings.Batch,
			d.Signals.OccP90, d.Signals.FailedPushRate, d.Signals.ShortPollRate,
			float64(d.Signals.CombinedPairs)/float64(max(d.Signals.Ticks, 1)))
	}
}
