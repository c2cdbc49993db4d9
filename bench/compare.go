package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// verdict is -compare's judgement of one (workload, metric) pair.
type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

// minPairs is how many paired runs a gain needs before it may be
// claimed (choosing-metrics §8).
const minPairs = 10

// judge compares the runs of a baseline (a) and a change (b) of one
// end-to-end metric, paired in the order they were made:
//
//   - unresolved when either side's run-to-run spread (interquartile
//     distance over the median) is wider than the bound: the benchmark
//     cannot tell a move of that size from noise;
//   - regressed when b's median is worse than a's by more than the bound;
//   - improved when there are at least ten pairs, b wins nine tenths of
//     them (ties count for neither side) and the medians differ by more
//     than the distance between a's own quartiles;
//   - unchanged otherwise.
func judge(m metricDef, a, b []float64) verdict {
	if len(a) == 0 || len(b) == 0 {
		return unresolved
	}
	if spread(a) > m.Bound || spread(b) > m.Bound {
		return unresolved
	}
	ma, mb := median(a), median(b)
	worse := func(x, y float64) bool { // is y worse than x
		if m.Better == "higher" {
			return y < x
		}
		return y > x
	}
	if ma != 0 && worse(ma, mb) && math.Abs(mb-ma)/math.Abs(ma) > m.Bound {
		return regressed
	}
	pairs := min(len(a), len(b))
	if pairs < minPairs {
		return unchanged
	}
	wins, losses := 0, 0
	for i := 0; i < pairs; i++ {
		switch {
		case worse(b[i], a[i]): // a worse than b: b wins
			wins++
		case worse(a[i], b[i]):
			losses++
		}
	}
	q1, q3 := quartiles(a)
	if float64(wins) >= 0.9*float64(pairs) && math.Abs(mb-ma) > q3-q1 {
		return improved
	}
	return unchanged
}

// valuesOf collects one metric of one workload's pass across a file's
// runs, in run order.
func valuesOf(f *resultsFile, workload string, traced bool, metric string) []float64 {
	var xs []float64
	for _, r := range f.Runs {
		if r.Workload != workload || r.Traced != traced {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

// compareFiles prints, for every workload, each native end-to-end
// metric's medians, quartiles, delta, bound and verdict, then the
// per-layer medians and deltas of the traced passes, and returns 1 when
// anything regressed.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	return compareResults(w, a, b)
}

func compareResults(w io.Writer, a, b *resultsFile) int {
	code := 0
	for _, wl := range allWorkloads {
		fmt.Fprintf(w, "== %s\n", wl)
		fmt.Fprintf(w, "  %-22s %5s %12s %25s %12s %25s %8s %6s  %s\n",
			"end-to-end", "n", "a median", "a quartiles", "b median", "b quartiles", "delta", "bound", "verdict")
		for _, m := range endToEnd {
			if !isNative(m, wl) {
				continue
			}
			xa, xb := valuesOf(a, wl, false, m.Name), valuesOf(b, wl, false, m.Name)
			if len(xa) == 0 && len(xb) == 0 {
				continue
			}
			v := judge(m, xa, xb)
			if v == regressed {
				code = 1
			}
			a1, a3 := quartiles(xa)
			b1, b3 := quartiles(xb)
			fmt.Fprintf(w, "  %-22s %2d/%-2d %12.6g %25s %12.6g %25s %+7.1f%% %5.0f%%  %s\n",
				m.Name, len(xa), len(xb), median(xa), fmt.Sprintf("[%.6g, %.6g]", a1, a3),
				median(xb), fmt.Sprintf("[%.6g, %.6g]", b1, b3), delta(median(xa), median(xb)), m.Bound*100, v)
		}
		first := true
		for _, m := range perLayer {
			xa, xb := valuesOf(a, wl, true, m.Name), valuesOf(b, wl, true, m.Name)
			if !isNative(m, wl) || len(xa) == 0 || len(xb) == 0 {
				continue
			}
			if first {
				fmt.Fprintf(w, "  %-38s %12s %12s %8s\n", "per-layer (no bound, no verdict)", "a median", "b median", "delta")
				first = false
			}
			fmt.Fprintf(w, "  %-38s %12.6g %12.6g %+7.1f%%\n", m.Name, median(xa), median(xb), delta(median(xa), median(xb)))
		}
		for _, line := range countDiffs(a, b, wl) {
			fmt.Fprintln(w, "  "+line)
			code = 1
		}
	}
	return code
}

// delta is b's change over a in percent; 0 when a is 0.
func delta(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / math.Abs(a) * 100
}

// countDiffs reports exact counts that differ between runs of one
// workload: the schedule fixes them, so any difference is a defect in
// the benchmark or in the program.
func countDiffs(a, b *resultsFile, workload string) []string {
	seen := map[string]map[int64]bool{}
	for _, f := range []*resultsFile{a, b} {
		for _, r := range f.Runs {
			if r.Workload != workload {
				continue
			}
			for k, v := range r.Counts {
				if seen[k] == nil {
					seen[k] = map[int64]bool{}
				}
				seen[k][v] = true
			}
		}
	}
	var out []string
	for k, vs := range seen {
		if len(vs) > 1 {
			var xs []int64
			for v := range vs {
				xs = append(xs, v)
			}
			sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
			out = append(out, fmt.Sprintf("count %s does not repeat exactly: %v", k, xs))
		}
	}
	sort.Strings(out)
	return out
}
