// Package tuner is the offline half of the paper's hand tuning (§III-B,
// §IV): the paper picks the mapper-to-combiner ratio, the consume batch size
// and the queue capacity per workload and per machine by sweeping them, and
// Lu et al.'s Xeon Phi study shows the best point moves across workloads on
// one chip. This package automates that sweep and keeps its answer.
//
// Two pieces:
//
//   - Search: seeded coordinate descent over ratio × queue capacity ×
//     batch size with a small evaluation cache and early stopping, the
//     automated version of the paper's manual sweeps (cmd/ramrtune).
//
//   - Profile: the JSON artifact a search emits, loadable as a warm
//     start (mr.Config.ApplyProfile).
//
// There is no online controller: the combiner pool is static for a run, and
// the pipeline's work conservation (in a fused pool every worker maps and
// folds each pair where it is made) absorbs a badly sized split
// (DESIGN.md §9).
// The package depends on nothing but the standard library so mr and the
// commands can import it without cycles.
package tuner

import (
	"fmt"
	"sort"
)

// Point is one candidate static configuration in the offline search
// space: the three knobs the paper sweeps by hand in §IV.
type Point struct {
	// Ratio is the mapper-to-combiner ratio (mr.Config.Ratio).
	Ratio int `json:"ratio"`
	// QueueCapacity is the per-mapper SPSC ring capacity.
	QueueCapacity int `json:"queue_capacity"`
	// BatchSize is the combiner's consume batch size.
	BatchSize int `json:"batch_size"`
}

// String renders the point the way ramrtune logs it.
func (p Point) String() string {
	return fmt.Sprintf("ratio=%d cap=%d batch=%d", p.Ratio, p.QueueCapacity, p.BatchSize)
}

// Space is the candidate grid the search walks, one axis per knob. Axes
// are deduplicated and sorted; an empty axis pins that knob to the start
// point's value.
type Space struct {
	Ratios     []int `json:"ratios"`
	Capacities []int `json:"capacities"`
	Batches    []int `json:"batches"`
}

// normalize sorts and deduplicates each axis.
func (s Space) normalize() Space {
	clean := func(vs []int) []int {
		seen := map[int]bool{}
		var out []int
		for _, v := range vs {
			if v > 0 && !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		sort.Ints(out)
		return out
	}
	return Space{Ratios: clean(s.Ratios), Capacities: clean(s.Capacities), Batches: clean(s.Batches)}
}

// Eval measures one candidate point and returns its cost (seconds; lower
// is better). The searcher minimizes it.
type Eval func(Point) (float64, error)

// SearchOptions bound the coordinate descent.
type SearchOptions struct {
	// MaxPasses is the maximum number of full coordinate sweeps; 0
	// selects 3. The search also stops early after any pass that fails
	// to improve the best cost by more than Tolerance.
	MaxPasses int
	// Tolerance is the relative improvement below which a pass counts as
	// converged; 0 selects 0.02 (2%).
	Tolerance float64
	// Log, when non-nil, receives one line per evaluation.
	Log func(string)
}

// EvalRecord is one measured candidate, kept for the profile's audit
// trail.
type EvalRecord struct {
	Point   Point   `json:"point"`
	Seconds float64 `json:"seconds"`
}

// SearchResult is the outcome of a coordinate descent.
type SearchResult struct {
	Best        Point        `json:"best"`
	BestSeconds float64      `json:"best_seconds"`
	Passes      int          `json:"passes"`
	Evaluations []EvalRecord `json:"evaluations"`
	// Converged reports whether the search stopped because a full pass
	// brought no meaningful improvement (as opposed to hitting
	// MaxPasses).
	Converged bool `json:"converged"`
}

// CoordinateDescent minimizes eval over the space, one axis at a time,
// starting from start: for each knob in turn it evaluates every candidate
// value with the other knobs held at their current best, adopts the
// winner, and repeats until a full pass improves the best cost by less
// than the tolerance (early stopping) or MaxPasses is reached. Evaluated
// points are cached, so revisiting a point during later passes is free —
// with k values per axis a search costs at most passes * (sum of axis
// lengths) runs instead of the full k^3 grid.
func CoordinateDescent(space Space, start Point, eval Eval, opts SearchOptions) (*SearchResult, error) {
	space = space.normalize()
	if opts.MaxPasses <= 0 {
		opts.MaxPasses = 3
	}
	if opts.Tolerance <= 0 {
		opts.Tolerance = 0.02
	}
	if start.Ratio <= 0 || start.QueueCapacity <= 0 || start.BatchSize <= 0 {
		return nil, fmt.Errorf("tuner: invalid start point %v", start)
	}

	res := &SearchResult{Best: start}
	cache := map[Point]float64{}
	measure := func(p Point) (float64, error) {
		if s, ok := cache[p]; ok {
			return s, nil
		}
		s, err := eval(p)
		if err != nil {
			return 0, fmt.Errorf("tuner: evaluating %v: %w", p, err)
		}
		cache[p] = s
		res.Evaluations = append(res.Evaluations, EvalRecord{Point: p, Seconds: s})
		if opts.Log != nil {
			opts.Log(fmt.Sprintf("%v: %.4fs", p, s))
		}
		return s, nil
	}

	best, err := measure(res.Best)
	if err != nil {
		return nil, err
	}
	res.BestSeconds = best

	axes := []struct {
		values []int
		apply  func(*Point, int)
	}{
		{space.Ratios, func(p *Point, v int) { p.Ratio = v }},
		{space.Capacities, func(p *Point, v int) { p.QueueCapacity = v }},
		{space.Batches, func(p *Point, v int) { p.BatchSize = v }},
	}

	for pass := 0; pass < opts.MaxPasses; pass++ {
		res.Passes = pass + 1
		passStart := res.BestSeconds
		for _, axis := range axes {
			for _, v := range axis.values {
				cand := res.Best
				axis.apply(&cand, v)
				if cand == res.Best {
					continue
				}
				s, err := measure(cand)
				if err != nil {
					return nil, err
				}
				if s < res.BestSeconds {
					res.Best, res.BestSeconds = cand, s
				}
			}
		}
		if passStart > 0 && (passStart-res.BestSeconds)/passStart < opts.Tolerance {
			res.Converged = true
			break
		}
	}
	return res, nil
}
