package workloads

import (
	"fmt"

	"ramr/internal/container"
	"ramr/internal/mr"
	"ramr/internal/stats"
)

// LR emits five integer accumulators per point, keyed 0..4, from which the
// least-squares line follows in closed form.
const (
	lrKeySX  = 0 // sum of x
	lrKeySY  = 1 // sum of y
	lrKeySXX = 2 // sum of x^2
	lrKeySYY = 3 // sum of y^2
	lrKeySXY = 4 // sum of x*y
	lrKeys   = 5
)

// LRPoint is one (x, y) sample; byte-sized coordinates as in the Phoenix
// suite, where the input file is a stream of coordinate bytes.
type LRPoint struct {
	X, Y uint8
}

// lrSplitPoints is the number of points per split.
const lrSplitPoints = 4096

// lrNoiseMax is rand.Int31n's rejection bound for the 21 noise values.
const lrNoiseMax = (1<<31 - 1) - (1<<31)%21

// GenerateLRPoints builds n deterministic points around the line
// y = 0.7x + 30 with noise, pre-partitioned into splits.
func GenerateLRPoints(n int, seed int64) [][]LRPoint {
	rng := stats.Rng(seed, "linreg")
	var splits [][]LRPoint
	for n > 0 {
		sz := lrSplitPoints
		if sz > n {
			sz = n
		}
		pts := make([]LRPoint, sz)
		for i := range pts {
			// rng.Intn(256) and rng.Intn(21), spelled out over Int31 so
			// the bound and the modulus are constants.
			x := int(rng.Int31() & 255)
			noise := rng.Int31()
			for noise > lrNoiseMax {
				noise = rng.Int31()
			}
			y := int(0.7*float64(x)) + 30 + int(noise%21) - 10
			if y < 0 {
				y = 0
			}
			if y > 255 {
				y = 255
			}
			pts[i] = LRPoint{X: uint8(x), Y: uint8(y)}
		}
		splits = append(splits, pts)
		n -= sz
	}
	return splits
}

func lrContainer(kind container.Kind) container.Factory[int, int64] {
	switch kind {
	case container.KindFixedHash:
		return func() container.Container[int, int64] {
			return container.NewFixedHash[int, int64](lrKeys, container.HashInt)
		}
	case container.KindHash:
		return func() container.Container[int, int64] { return container.NewHash[int, int64]() }
	default:
		return func() container.Container[int, int64] { return container.NewFixedArray[int64](lrKeys) }
	}
}

// LinRegSpec builds the LR job over the given point splits. Each point
// emits its five statistic contributions — the per-element emission rate
// is the highest in the suite relative to compute, making LR the paper's
// canonical "light" workload where the queue overhead dominates RAMR.
func LinRegSpec(splits [][]LRPoint, kind container.Kind) *mr.Spec[[]LRPoint, int, int64, int64] {
	return &mr.Spec[[]LRPoint, int, int64, int64]{
		Name:   "LR",
		Splits: splits,
		Map: func(pts []LRPoint, emit func(int, int64)) {
			for _, p := range pts {
				x, y := int64(p.X), int64(p.Y)
				emit(lrKeySX, x)
				emit(lrKeySY, y)
				emit(lrKeySXX, x*x)
				emit(lrKeySYY, y*y)
				emit(lrKeySXY, x*y)
			}
		},
		Combine:      container.Sum[int64](),
		Reduce:       mr.IdentityReduce[int, int64](),
		NewContainer: lrContainer(kind),
		Less:         func(a, b int) bool { return a < b },
	}
}

// LRSolve turns the five aggregated sums into (slope, intercept).
func LRSolve(n int, sums map[int]int64) (slope, intercept float64) {
	fn := float64(n)
	sx, sy := float64(sums[lrKeySX]), float64(sums[lrKeySY])
	sxx, sxy := float64(sums[lrKeySXX]), float64(sums[lrKeySXY])
	den := fn*sxx - sx*sx
	if den == 0 {
		return 0, 0
	}
	slope = (fn*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / fn
	return slope, intercept
}

// LinRegJob instantiates Linear Regression over n synthetic points.
func LinRegJob(nPoints int, kind container.Kind, seed int64) *Job {
	splits := GenerateLRPoints(nPoints, seed)
	spec := LinRegSpec(splits, kind)
	j := &Job{
		App:       "LR",
		FullName:  "Linear Regression",
		Container: kind,
		InputDesc: fmt.Sprintf("%d points in %d splits", nPoints, len(splits)),
	}
	return BindSpec(j, spec, nil, intPairDigest[int64], nil)
}
