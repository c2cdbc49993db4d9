// Package harness regenerates every table and figure of the paper's
// evaluation (§IV). Each experiment is registered under the paper's own
// identifier (table1, fig1, fig4, fig5, fig6, fig7, fig8a, fig8b, fig9a,
// fig9b, fig10a, fig10b, plus fig3's pinning demo and native re-runs of
// the engine comparisons on the host) and renders the same rows/series the
// paper reports, as aligned text or CSV.
//
// Platform-dependent figures run on the modeled Haswell/Xeon Phi
// topologies through internal/simarch (deterministic); engine-comparison
// experiments also exist in "native" variants that execute the real Go
// runtimes on the current host.
package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"ramr/internal/obs"
	"ramr/internal/telemetry"
)

// Options configures an experiment run.
type Options struct {
	// Seed drives every input generator.
	Seed int64
	// Quick shrinks native inputs and repetition counts for CI.
	Quick bool
	// Runs is the repetition count for native timing experiments (the
	// paper averages 20 runs); 0 picks a default.
	Runs int
	// Trace, when non-nil, collects per-worker spans from every measured
	// native run into one timeline (ratio probes stay uninstrumented).
	Trace *obs.Recorder
	// Telemetry, when non-nil, instruments every measured native run;
	// after the experiment, Telemetry.LastReport() describes the final
	// run performed.
	Telemetry *telemetry.Telemetry
}

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options { return Options{Seed: 42, Runs: 5} }

// Row is one labeled series of values in a report.
type Row struct {
	Label  string
	Values []float64
}

// Report is a rendered experiment result.
type Report struct {
	// ID is the experiment identifier (e.g. "fig8a").
	ID string
	// Title describes the experiment as the paper captions it.
	Title string
	// Columns labels the value columns.
	Columns []string
	// Rows holds the series.
	Rows []Row
	// Notes carries caveats and expected-shape commentary.
	Notes []string
}

// Render writes the report as aligned text.
func (r *Report) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title); err != nil {
		return err
	}
	labelW := 12
	for _, row := range r.Rows {
		if len(row.Label) > labelW {
			labelW = len(row.Label)
		}
	}
	fmt.Fprintf(w, "%-*s", labelW+2, "")
	for _, c := range r.Columns {
		fmt.Fprintf(w, "%14s", c)
	}
	fmt.Fprintln(w)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-*s", labelW+2, row.Label)
		for _, v := range row.Values {
			fmt.Fprintf(w, "%14s", formatValue(v))
		}
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	return nil
}

// RenderCSV writes the report as CSV with a header row.
func (r *Report) RenderCSV(w io.Writer) error {
	cols := append([]string{"label"}, r.Columns...)
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for _, row := range r.Rows {
		fields := []string{row.Label}
		for _, v := range row.Values {
			fields = append(fields, fmt.Sprintf("%g", v))
		}
		if _, err := fmt.Fprintln(w, strings.Join(fields, ",")); err != nil {
			return err
		}
	}
	return nil
}

func formatValue(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1e6 || v < 0.01:
		return fmt.Sprintf("%.3g", v)
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Experiment is one registered table/figure regenerator.
type Experiment struct {
	// ID is the lookup key ("fig5").
	ID string
	// Title is a one-line description.
	Title string
	// Native reports that the experiment times real engine runs on this
	// host (as opposed to going through the simarch model) and therefore
	// honors Options.Telemetry and Options.Trace.
	Native bool
	// Run executes the experiment.
	Run func(Options) (*Report, error)
}

var registry = map[string]Experiment{}

// register adds an experiment, wrapping Run so every report carries the
// experiment's id and title even when the driver leaves them blank.
func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("harness: duplicate experiment " + e.ID)
	}
	inner := e.Run
	id, title := e.ID, e.Title
	e.Run = func(o Options) (*Report, error) {
		rep, err := inner(o)
		if err != nil {
			return nil, err
		}
		if rep.ID == "" {
			rep.ID = id
		}
		if rep.Title == "" {
			rep.Title = title
		}
		return rep, nil
	}
	registry[e.ID] = e
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("harness: unknown experiment %q (use List)", id)
	}
	return e, nil
}

// List returns all experiments sorted by id.
func List() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
