package main

import (
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "m", Better: "lower", Bound: 0.05}
	higher := metricDef{Name: "r", Better: "higher", Bound: 0.05}
	steady := func(base float64) []float64 { // spread 0.4 %
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = base * (1 + 0.001*float64(i-5))
		}
		return xs
	}
	noisy := func(base float64) []float64 { // spread well over 5 %
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = base * (1 + 0.03*float64(i-5))
		}
		return xs
	}
	for _, c := range []struct {
		name string
		m    metricDef
		a, b []float64
		want verdict
	}{
		{"same", lower, steady(10), steady(10), unchanged},
		{"2% slower is inside the bound", lower, steady(10), steady(10.2), unchanged},
		{"8% slower", lower, steady(10), steady(10.8), regressed},
		{"8% faster, ten pairs all won", lower, steady(10), steady(9.2), improved},
		{"8% faster but only three pairs", lower, steady(10)[:3], steady(9.2)[:3], unchanged},
		{"faster inside the baseline's own quartiles", lower, steady(10), steady(9.998), unchanged},
		{"noisy baseline", lower, noisy(10), steady(12), unresolved},
		{"noisy change", lower, steady(10), noisy(12), unresolved},
		{"missing side", lower, steady(10), nil, unresolved},
		{"rate 8% lower", higher, steady(100), steady(92), regressed},
		{"rate 8% higher", higher, steady(100), steady(108), improved},
	} {
		if got := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareResultsPrintsVerdictsAndCountDiffs(t *testing.T) {
	mk := func(makespan float64, hits int64) *resultsFile {
		f := &resultsFile{SchemaVersion: schemaVersion}
		for i := 0; i < 10; i++ {
			r := newResult(wServeMixed, int64(i), 10, false)
			r.set("makespan_s", makespan*(1+0.001*float64(i)))
			r.Counts["memo.hits"] = hits
			f.Runs = append(f.Runs, r)
		}
		return f
	}
	var out strings.Builder
	if code := compareResults(&out, mk(10, 102), mk(13, 102)); code != 1 {
		t.Errorf("exit code %d for a 30%% regression, want 1", code)
	}
	if !strings.Contains(out.String(), "regressed") {
		t.Errorf("no regressed verdict in:\n%s", out.String())
	}
	out.Reset()
	if code := compareResults(&out, mk(10, 102), mk(10, 101)); code != 1 || !strings.Contains(out.String(), "memo.hits does not repeat exactly") {
		t.Errorf("code %d, want 1 and a count difference in:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareResults(&out, mk(10, 102), mk(10, 102)); code != 0 {
		t.Errorf("exit code %d for equal runs, want 0:\n%s", code, out.String())
	}
}
