package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func quickOpts() Options {
	return Options{Seed: 42, Quick: true, Runs: 1}
}

// TestAllExperimentsRun executes every registered experiment in quick mode,
// renders both output formats, and holds every modelled experiment's CSV
// byte for byte to its file under results/.
func TestAllExperimentsRun(t *testing.T) {
	if len(List()) < 15 {
		t.Fatalf("only %d experiments registered", len(List()))
	}
	for _, e := range List() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if e.ID == "native8a" || e.ID == "native8b" {
				// These re-measure the whole suite natively; the root
				// integration test covers them once.
				t.Skip("covered by the integration test")
			}
			rep, err := e.Run(quickOpts())
			if err != nil {
				t.Fatal(err)
			}
			if rep.ID != e.ID {
				t.Fatalf("report id %q, want %q", rep.ID, e.ID)
			}
			if rep.Title == "" {
				t.Fatal("missing title")
			}
			var text strings.Builder
			if err := rep.Render(&text); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(text.String(), e.ID) {
				t.Fatal("rendered text lacks the experiment id")
			}
			var csv strings.Builder
			if err := rep.RenderCSV(&csv); err != nil {
				t.Fatal(err)
			}
			if len(rep.Rows) > 0 {
				lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
				if len(lines) != len(rep.Rows)+1 {
					t.Fatalf("CSV has %d lines for %d rows", len(lines), len(rep.Rows))
				}
				header := strings.Split(lines[0], ",")
				if len(header) != len(rep.Columns)+1 {
					t.Fatalf("CSV header %v vs columns %v", header, rep.Columns)
				}
			}
			if e.Native {
				return
			}
			// A modelled figure is deterministic: it must be exactly the
			// file results/ ships.
			want, err := os.ReadFile(filepath.Join("..", "..", "results", e.ID+".csv"))
			if err != nil {
				t.Fatal(err)
			}
			if csv.String() != string(want) {
				t.Fatalf("results/%s.csv differs from the model:\n got: %s\nwant: %s", e.ID, csv.String(), want)
			}
		})
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown id accepted")
	}
	e, err := ByID("fig5")
	if err != nil || e.ID != "fig5" {
		t.Fatalf("ByID(fig5) = %+v, %v", e, err)
	}
}

func TestListSorted(t *testing.T) {
	l := List()
	for i := 1; i < len(l); i++ {
		if l[i-1].ID >= l[i].ID {
			t.Fatalf("list not sorted at %d: %s >= %s", i, l[i-1].ID, l[i].ID)
		}
	}
}

// TestFig5ReportShape checks the figure's headline property end-to-end:
// every per-app speedup row is >= 1 for both baselines.
func TestFig5ReportShape(t *testing.T) {
	e, err := ByID("fig5")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 6 {
		t.Fatalf("%d rows", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		for i, v := range row.Values {
			if v < 1 {
				t.Errorf("%s column %d: RAMR pinning slower than baseline (%.3f)", row.Label, i, v)
			}
		}
	}
}

// TestFig1ReportShape: the map-combine phase dominates the suite.
func TestFig1ReportShape(t *testing.T) {
	e, err := ByID("fig1")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	last := rep.Rows[len(rep.Rows)-1]
	if last.Label != "AVG map-combine" {
		t.Fatalf("missing average row, got %q", last.Label)
	}
	if avg := last.Values[2]; avg < 50 {
		t.Errorf("map-combine should dominate the run time, got %.1f%%", avg)
	}
}

func TestFormatValue(t *testing.T) {
	for v, want := range map[float64]string{
		0:       "0",
		1234567: "1.23e+06",
		123:     "123",
		1.5:     "1.500",
	} {
		if got := formatValue(v); got != want {
			t.Fatalf("formatValue(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestDefaultOptions(t *testing.T) {
	o := DefaultOptions()
	if o.Seed == 0 || o.Runs == 0 {
		t.Fatalf("%+v", o)
	}
}

// TestSuitMapCorrelation pins the paper's closing §IV-E claim: the
// suitability ranking predicts the speedup ranking (positive rank
// correlation).
func TestSuitMapCorrelation(t *testing.T) {
	e, err := ByID("suitmap")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	last := rep.Rows[len(rep.Rows)-1]
	if last.Label != "rank-corr" {
		t.Fatalf("missing correlation row: %q", last.Label)
	}
	if rho := last.Values[3]; rho < 0.5 {
		t.Errorf("suitability should predict speedups, rank correlation %.2f", rho)
	}
}

func TestSpearman(t *testing.T) {
	perfect := []suitRow{{"a", 1, 10}, {"b", 2, 20}, {"c", 3, 30}}
	if rho := spearman(perfect); rho != 1 {
		t.Fatalf("perfect agreement should be 1, got %v", rho)
	}
	inverse := []suitRow{{"a", 1, 30}, {"b", 2, 20}, {"c", 3, 10}}
	if rho := spearman(inverse); rho != -1 {
		t.Fatalf("perfect disagreement should be -1, got %v", rho)
	}
	if spearman(nil) != 0 {
		t.Fatal("degenerate input should be 0")
	}
}
