// Package stats provides the small statistical helpers used by the RAMR
// benchmark harness: means, standard deviations, speedups and geometric
// means, plus a deterministic splittable RNG so every experiment is
// reproducible run-to-run.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs (n-1 denominator).
// It returns 0 when fewer than two samples are present.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// Median returns the median of xs, or 0 for an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// Min returns the minimum of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Speedup returns baseline/alternative: values above 1 mean the alternative
// is faster. A zero alternative yields +Inf, matching the usual convention.
func Speedup(baseline, alternative float64) float64 {
	if alternative == 0 {
		return math.Inf(1)
	}
	return baseline / alternative
}

// GeoMean returns the geometric mean of xs. Non-positive entries are
// rejected with a panic because they indicate a harness bug (negative or
// zero run times), never a legitimate measurement.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: GeoMean of non-positive value %v", x))
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// NormalizeTo divides every element of xs by base, returning a new slice.
// It is used by the sensitivity plots that normalize curves to their first
// data point.
func NormalizeTo(xs []float64, base float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / base
	}
	return out
}

// Rng returns a deterministic *rand.Rand derived from a root seed and a
// stream label, so independent experiment stages draw from independent but
// reproducible streams.
func Rng(seed int64, stream string) *rand.Rand {
	return rand.New(rand.NewSource(int64(streamKey(seed, stream))))
}

// streamKey folds a stream label into the root seed (FNV-1a over the label).
func streamKey(seed int64, stream string) uint64 {
	var h int64 = 1469598103934665603
	for i := 0; i < len(stream); i++ {
		h ^= int64(stream[i])
		h *= 1099511628211
	}
	return uint64(seed ^ h)
}

// Stream is a splitmix64 rand.Source64 over the substreams of one (seed,
// label) pair. The input generators draw split i from substream i, so a
// shard can generate just the splits it owns; math/rand's own source fills a
// 607-word table per seeding, too dear to pay once per split.
type Stream struct{ key, x uint64 }

// NewStream returns the (seed, stream) family; Seek before drawing.
func NewStream(seed int64, stream string) *Stream {
	return &Stream{key: streamKey(seed, stream)}
}

// Seek moves to the start of substream i, a pure function of (seed, label,
// i) — itself a splitmix64 output, so neighbouring substreams do not overlap.
func (s *Stream) Seek(i int) {
	s.x = s.key + uint64(i)*0xd1342543de82ef95
	s.x = s.Uint64()
}

// Uint64 implements rand.Source64.
func (s *Stream) Uint64() uint64 {
	s.x += 0x9e3779b97f4a7c15
	z := s.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 and Seed complete rand.Source; the generators reposition with Seek.
func (s *Stream) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *Stream) Seed(seed int64) { s.x = uint64(seed) }
