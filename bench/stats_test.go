package main

import (
	"math"
	"testing"
)

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		got  float64
	}{
		{n: 10, want: 0.95, got: 0.5},   // too small for any tail
		{n: 20, want: 0.95, got: 0.5},   // 10 beyond the median is not a tail
		{n: 50, want: 0.95, got: 0.80},  // 10 of 50 beyond p80
		{n: 100, want: 0.95, got: 0.90}, // 10 of 100 beyond p90
		{n: 199, want: 0.95, got: 1 - 10.0/199},
		{n: 200, want: 0.95, got: 0.95},  // exactly 10 beyond p95
		{n: 5000, want: 0.95, got: 0.95}, // never above what was asked
		{n: 5000, want: 0.99, got: 0.99},
	} {
		if got := tailQuantile(c.n, c.want); math.Abs(got-c.got) > 1e-12 {
			t.Errorf("tailQuantile(%d, %g) = %g, want %g", c.n, c.want, got, c.got)
		}
	}
}

func TestSetTimingNotesTheSupportedPercentile(t *testing.T) {
	r := newResult("w", 1, 1, false)
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	r.setTiming("tail", xs, 0.95)
	if want := quantile(xs, 0.90); r.Metrics["tail"] != want {
		t.Errorf("tail = %g, want the p90 %g", r.Metrics["tail"], want)
	}
	if r.Notes["tail"] == "" || r.Samples["tail"] != 100 {
		t.Errorf("note %q samples %d: want a note and n=100", r.Notes["tail"], r.Samples["tail"])
	}
	r.setTiming("mid", xs, 0.5)
	if r.Metrics["mid"] != 50.5 || r.Notes["mid"] != "" {
		t.Errorf("median = %g note %q, want 50.5 and no note", r.Metrics["mid"], r.Notes["mid"])
	}
}

// The driver computes spread with Python's statistics.quantiles(n=4).
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; statistics.quantiles gives 2.75, 8.25", q1, q3)
	}
	if got, want := spread(xs), 5.5/5.5; got != want {
		t.Errorf("spread = %g, want %g", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %g, %g; statistics.quantiles gives 1.5, 12", q1, q3)
	}
}
