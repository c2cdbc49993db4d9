// Command ramrbench regenerates the paper's tables and figures.
//
// Usage:
//
//	ramrbench -list
//	ramrbench fig5 fig8a
//	ramrbench -quick all
//	ramrbench -csv fig7 > fig7.csv
//	ramrbench -metrics-out metrics.json -trace-out trace.json tasksize
//
// Experiment ids follow the paper: table1, fig1, fig3, fig4, fig5, fig6,
// fig7, fig8a, fig8b, fig9a, fig9b, fig10a, fig10b, plus native8a/native8b
// which re-run the engine comparison with the real runtimes on this host.
//
// -metrics-out and -trace-out instrument the native experiments (fig1,
// fig4, native8a/b, tasksize); modeled figures run through simarch and are
// unaffected. The metrics JSON describes the last native run performed,
// the Chrome trace accumulates spans from every measured run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"ramr/internal/harness"
	"ramr/internal/obs"
	"ramr/internal/telemetry"
)

// writeFileWith creates path and streams write into it.
func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeCSVFile writes one report as <dir>/<id>.csv.
func writeCSVFile(dir string, rep *harness.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, rep.ID+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return rep.RenderCSV(f)
}

func main() {
	list := flag.Bool("list", false, "list available experiments and exit")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	outdir := flag.String("outdir", "", "also write each report as <outdir>/<id>.csv")
	quick := flag.Bool("quick", false, "shrink native inputs and repetition counts (CI mode)")
	seed := flag.Int64("seed", 42, "input-generator seed")
	runs := flag.Int("runs", 0, "repetitions for native timing experiments (0 = default)")
	metricsOut := flag.String("metrics-out", "", "write the telemetry report of the last native run as JSON to this file")
	traceOut := flag.String("trace-out", "", "write a Chrome trace of the native runs to this file (view at chrome://tracing)")
	flag.Parse()

	if *list {
		for _, e := range harness.List() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	ids := flag.Args()
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "ramrbench: no experiment given (try -list, or 'all')")
		os.Exit(2)
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = nil
		for _, e := range harness.List() {
			ids = append(ids, e.ID)
		}
	}

	// Validate the whole invocation before running anything: a bad flag or
	// id should fail fast, not after minutes of measurement.
	if *runs < 0 {
		fmt.Fprintf(os.Stderr, "ramrbench: -runs must be >= 0 (0 = default), got %d\n", *runs)
		os.Exit(2)
	}
	exps := make([]harness.Experiment, 0, len(ids))
	anyNative := false
	for _, id := range ids {
		exp, err := harness.ByID(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ramrbench:", err)
			os.Exit(2)
		}
		anyNative = anyNative || exp.Native
		exps = append(exps, exp)
	}
	if !anyNative {
		// Modeled experiments never touch the instrumentation, so these
		// flags would silently produce nothing (or die at report time).
		if *metricsOut != "" {
			fmt.Fprintln(os.Stderr, "ramrbench: -metrics-out needs at least one native experiment (fig1, fig4, native8a/b, tasksize)")
			os.Exit(2)
		}
		if *traceOut != "" {
			fmt.Fprintln(os.Stderr, "ramrbench: -trace-out needs at least one native experiment (fig1, fig4, native8a/b, tasksize)")
			os.Exit(2)
		}
	}

	opt := harness.Options{Seed: *seed, Quick: *quick, Runs: *runs}
	if *metricsOut != "" {
		opt.Telemetry = telemetry.New()
	}
	if *traceOut != "" {
		opt.Trace = obs.New("")
	}
	for _, exp := range exps {
		id := exp.ID
		rep, err := exp.Run(opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ramrbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		var renderErr error
		if *csv {
			renderErr = rep.RenderCSV(os.Stdout)
		} else {
			renderErr = rep.Render(os.Stdout)
			fmt.Println()
		}
		if renderErr != nil {
			fmt.Fprintf(os.Stderr, "ramrbench: render %s: %v\n", id, renderErr)
			os.Exit(1)
		}
		if *outdir != "" {
			if err := writeCSVFile(*outdir, rep); err != nil {
				fmt.Fprintf(os.Stderr, "ramrbench: %v\n", err)
				os.Exit(1)
			}
		}
	}

	if opt.Telemetry != nil {
		rep := opt.Telemetry.LastReport()
		if rep == nil {
			fmt.Fprintln(os.Stderr, "ramrbench: -metrics-out: no native run executed (modeled experiments are not instrumented)")
			os.Exit(1)
		}
		if err := writeFileWith(*metricsOut, rep.WriteJSON); err != nil {
			fmt.Fprintf(os.Stderr, "ramrbench: %v\n", err)
			os.Exit(1)
		}
		if err := rep.Summary(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "ramrbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("telemetry report (last native run) written to %s\n", *metricsOut)
	}
	if opt.Trace != nil {
		if err := writeFileWith(*traceOut, opt.Trace.WriteChromeTrace); err != nil {
			fmt.Fprintf(os.Stderr, "ramrbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("chrome trace written to %s; per-worker utilization:\n", *traceOut)
		if err := opt.Trace.Summary(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "ramrbench: %v\n", err)
			os.Exit(1)
		}
	}
}
