package main

import (
	"encoding/json"
	"math"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload's traced pass at smoke size — 1 round /
// 10 operations, daemons booted for real — and checks that every named
// metric of both lists comes out once, finite, and that the contract's
// result line parses.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots ramrd and ramrc")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	defer stopAll()
	for _, w := range workloadDefs {
		res, err := runWorkload(root, w, 5, 1, true, true, filepath.Join(t.TempDir(), "trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		if !res.correct() {
			t.Errorf("%s: incorrect run: %v", w.Name, res.Failures)
		}
		for _, m := range endToEnd {
			if v, ok := res.Metrics[m.Name]; !ok || v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
				t.Errorf("%s: end-to-end metric %s = %v (present %t), want finite and never 0", w.Name, m.Name, v, ok)
			}
		}
		for _, m := range perLayer {
			v, ok := res.Metrics[m.Name]
			if isNative(m, w.Name) && !ok && res.Notes[m.Name] == "" {
				t.Errorf("%s: native per-layer metric %s not emitted", w.Name, m.Name)
			}
			if math.IsInf(v, 0) || math.IsNaN(v) {
				t.Errorf("%s: per-layer metric %s = %v", w.Name, m.Name, v)
			}
		}
		for _, traced := range []bool{false, true} {
			res.Traced = traced
			var line struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(res.contractLine()), &line); err != nil {
				t.Fatalf("%s: contract line does not parse: %v", w.Name, err)
			}
			if line.Correct == nil || line.Attempted == nil || line.Failed == nil || *line.Attempted < 1 {
				t.Errorf("%s: contract line lacks correct/attempted/failed", w.Name)
			}
			if len(line.Metrics) != len(defsFor(traced)) {
				t.Errorf("%s traced=%t: %d metrics on the contract line, want %d", w.Name, traced, len(line.Metrics), len(defsFor(traced)))
			}
			for _, m := range defsFor(traced) {
				if got, ok := line.Metrics[m.Name]; !ok || got.Value == nil || got.Unit != m.Unit {
					t.Errorf("%s traced=%t: metric %s missing or with the wrong unit on the contract line", w.Name, traced, m.Name)
				}
			}
		}
	}
}
