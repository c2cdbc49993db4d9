package core

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"sort"
	"testing"
	"time"

	"ramr/internal/container"
	"ramr/internal/mr"
	"ramr/internal/topology"
)

// skewedHistogramSpec builds the pool-sizing workload: a histogram whose
// keys follow a squared-uniform distribution, so a few hot buckets absorb
// most of the mass — the shape where combiner provisioning matters (hot
// keys make combine cheap per pair, so a statically oversized pool mostly
// starves).
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

// TestStaticPoolSweep is the EXPERIMENTS.md "Static pool sizing under work
// conservation" recipe: ten interleaved rounds over combiner counts 1..4 on
// a skewed histogram, every run listed, then the per-count medians and the
// worst/best median ratio. Because a round runs the four counts back to
// back, it also prints each count's median of its within-round ratio to the
// round's fastest run, which a host changing clock speed between rounds
// does not move. Gated behind an env var because it is a measurement, not a
// correctness check:
//
//	RAMR_CONVERGENCE=1 go test -count=1 -run TestStaticPoolSweep -v ./internal/core/
func TestStaticPoolSweep(t *testing.T) {
	if os.Getenv("RAMR_CONVERGENCE") == "" {
		t.Skip("set RAMR_CONVERGENCE=1 to run the static pool-sizing sweep")
	}
	spec := skewedHistogramSpec(64, 60_000, 256)
	base := mr.DefaultConfig()
	base.Mappers = 4
	base.QueueCapacity = 1024
	base.BatchSize = 100
	base.Machine = topology.Flat(4)
	base.Pin = mr.PinNone

	const rounds = 10
	walls := make([][]time.Duration, base.Mappers+1)
	for r := 0; r < rounds; r++ {
		for c := 1; c <= base.Mappers; c++ {
			cfg := base
			cfg.Combiners = c
			start := time.Now()
			if _, err := Run(spec, cfg); err != nil {
				t.Fatal(err)
			}
			walls[c] = append(walls[c], time.Since(start))
		}
	}
	median := func(vs []float64) float64 {
		vs = slices.Clone(vs)
		sort.Float64s(vs)
		return (vs[len(vs)/2-1] + vs[len(vs)/2]) / 2
	}
	fastest := make([]time.Duration, rounds)
	for r := range fastest {
		fastest[r] = walls[1][r]
		for c := 2; c <= base.Mappers; c++ {
			fastest[r] = min(fastest[r], walls[c][r])
		}
	}
	best, worst := math.Inf(1), 0.0
	for c := 1; c <= base.Mappers; c++ {
		ms, rel := make([]float64, rounds), make([]float64, rounds)
		fmt.Printf("combiners=%d runs:", c)
		for r, w := range walls[c] {
			ms[r] = float64(w) / float64(time.Millisecond)
			rel[r] = float64(w) / float64(fastest[r])
			fmt.Printf(" %.1f", ms[r])
		}
		med := median(ms)
		fmt.Printf("  median %.1f ms, within-round %.3f\n", med, median(rel))
		best, worst = min(best, med), max(worst, med)
	}
	fmt.Printf("worst/best median ratio %.3f\n", worst/best)
}
