package telemetry

import (
	"sort"
	"time"
)

// Sample is one sampler snapshot: queue depths and worker states at one
// offset from the run's start. Slice positions follow registration order
// (queue i of Report.Queues, worker i of Report.Workers).
type Sample struct {
	T      time.Duration
	Depths []int
	States []State
	// Imbalance is the occupancy-imbalance ratio across the registered
	// queues at this tick: max depth over mean depth, 1.0 when depths are
	// uniform (including the all-empty case) and up to len(Depths) when a
	// single queue holds everything: the operation-level skew signal
	// Report.Imbalance and the service's imbalance_p90 summarise.
	Imbalance float64
}

// series is the bounded sample store. Instead of a ring that forgets the
// start of long runs, it decimates: when the buffer fills, every other
// sample is dropped and the recording stride doubles, so the retained
// samples always span the whole run at the finest resolution the bound
// allows.
type series struct {
	max     int
	stride  int // record every stride-th offered sample
	skipped int // offers since the last recorded sample
	samples []Sample
}

func newSeries(max int) *series {
	if max < 2 {
		max = 2
	}
	return &series{max: max, stride: 1, samples: make([]Sample, 0, max)}
}

// add offers one sample, recording it if the current stride selects it and
// compacting when the buffer is full.
func (s *series) add(v Sample) {
	s.skipped++
	if s.skipped < s.stride {
		return
	}
	s.skipped = 0
	s.record(v)
}

// force records v unconditionally, bypassing the stride. EndRun uses it
// for the final sample: with stride > 1 a plain add could silently drop
// it, and a sub-interval run (no ticks fired yet) would otherwise report
// an empty series.
func (s *series) force(v Sample) {
	s.skipped = 0
	s.record(v)
}

func (s *series) record(v Sample) {
	if len(s.samples) == s.max {
		keep := s.samples[:0]
		for i := 0; i < len(s.samples); i += 2 {
			keep = append(keep, s.samples[i])
		}
		s.samples = keep
		s.stride *= 2
	}
	s.samples = append(s.samples, v)
}

// Percentiles summarizes one queue's sampled occupancy as fractions of
// capacity in [0, 1].
type Percentiles struct {
	Min  float64 `json:"min"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
}

// percentiles computes the summary of vs (already scaled); empty input
// yields zeros.
func percentiles(vs []float64) Percentiles {
	if len(vs) == 0 {
		return Percentiles{}
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	at := func(p float64) float64 {
		i := int(p * float64(len(sorted)-1))
		return sorted[i]
	}
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	return Percentiles{
		Min:  sorted[0],
		P50:  at(0.50),
		P90:  at(0.90),
		P99:  at(0.99),
		Max:  sorted[len(sorted)-1],
		Mean: sum / float64(len(sorted)),
	}
}
