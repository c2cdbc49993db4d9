// Command bench is the repository's measuring stick: five named
// workloads, eight end-to-end metrics with regression bounds, and a
// per-layer attribution from a separate traced pass. See README.md in
// this directory and BENCHMARK.json at the repository root.
//
//	go run -C bench . -seed 11                 every workload, both passes
//	go run -C bench . -workload serve_mixed -seed 11 -seconds 10 -trace 0
//	go run -C bench . -compare a.json b.json   verdict per (workload, metric)
//
// With -workload the last line of standard output is the benchmark
// contract's JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload   = flag.String("workload", "", "run one workload and end with the contract's JSON line (default: every workload, both passes)")
		seed       = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds    = flag.Int("seconds", 10, "run length the fixed operation lists are sized for, on the 2-core reference host")
		trace      = flag.Int("trace", 0, "with -workload: 0 = untraced pass (end-to-end metrics), 1 = traced pass (per-layer metrics)")
		traceOut   = flag.String("trace-out", "", "traced pass: write the Chrome trace here (default .bench_build/trace_<workload>.json)")
		smoke      = flag.Bool("smoke", false, "1 round / 10 operations per workload: checks the machinery, not speed")
		repeat     = flag.Int("repeat", 1, "run the selection this many times, with seeds seed, seed+1, ...")
		out        = flag.String("out", "", "write every run's result to this JSON file, the input of -compare")
		compare    = flag.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
		trajectory = flag.String("trajectory", "", "merge -out files of the same commit into this trajectory point: bench -trajectory BENCH_n.json set1.json set2.json ...")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *trajectory != "":
		if err := writeTrajectory(*trajectory, flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %q\n", flag.Args())
		return 2
	}
	if *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -repeat must be >= 1, -trace 0 or 1")
		return 2
	}

	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := os.MkdirAll(buildDir(root), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// Children are stopped on every exit path, signals included.
	defer stopAll()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		stopAll()
		os.Exit(130)
	}()

	type pass struct {
		w      workloadDef
		traced bool
	}
	var passes []pass
	if *workload != "" {
		w, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s)\n", *workload, strings.Join(allWorkloads, ", "))
			return 2
		}
		passes = []pass{{w, *trace == 1}}
	} else {
		for _, w := range workloadDefs {
			passes = append(passes, pass{w, false}, pass{w, true})
		}
	}

	var results []*result
	ok := true
	for i := 0; i < *repeat; i++ {
		for _, p := range passes {
			tracePath := *traceOut
			if p.traced && tracePath == "" {
				tracePath = filepath.Join(buildDir(root), "trace_"+p.w.Name+".json")
			}
			res, err := runWorkload(root, p.w, *seed+int64(i), *seconds, p.traced, *smoke, tracePath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			var b strings.Builder
			res.printTable(&b)
			fmt.Print(b.String())
			results = append(results, res)
			ok = ok && res.correct()
		}
	}
	if *out != "" {
		if err := writeResults(*out, root, results); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if *workload != "" {
		// The contract's result object, last on standard output.
		fmt.Println(results[len(results)-1].contractLine())
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: FAILED: an operation failed or an output did not match its reference")
		return 1
	}
	return 0
}

// resultsFile is what -out writes and -compare and -trajectory read.
type resultsFile struct {
	SchemaVersion int       `json:"schema_version"`
	Host          hostInfo  `json:"host"`
	Runs          []*result `json:"runs"`
}

func writeResults(path, root string, runs []*result) error {
	b, err := json.MarshalIndent(resultsFile{SchemaVersion: schemaVersion, Host: detectHost(root), Runs: runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.SchemaVersion != schemaVersion {
		return nil, fmt.Errorf("%s: schema_version %d, this build reads %d", path, f.SchemaVersion, schemaVersion)
	}
	return &f, nil
}
