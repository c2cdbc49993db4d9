// Command ramrtune searches the static knob space offline (§IV's hand
// sweep, automated): coordinate descent over mapper/combiner ratio, queue
// capacity and combiner batch size for one workload, with early stopping,
// emitting a JSON profile that mr.Config can load as a warm start.
//
// Usage:
//
//	ramrtune -app HG -out hg.json
//	ramrtune -app WC -size medium -ratios 1,2,4 -caps 8192,32768,131072 -batches 100,500,2000
//	ramrtune -load hg.json
//
// -load round-trips a saved profile through mr.Config.ApplyProfile and
// prints the resulting static configuration; it performs no runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"ramr/internal/mr"
	"ramr/internal/tuner"
	"ramr/internal/workloads"
)

// parseInts parses a comma-separated list of positive ints.
func parseInts(name, s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("%s: want comma-separated positive ints, got %q", name, f)
		}
		out = append(out, n)
	}
	return out, nil
}

// median of measured seconds; mutates vs.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	return vs[len(vs)/2]
}

func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ramrtune: "+format+"\n", args...)
	os.Exit(code)
}

func main() {
	app := flag.String("app", "HG", "workload: WC|HG|LR|KM|PCA|MM|SM")
	size := flag.String("size", "small", "input size class: small|medium|large")
	seed := flag.Int64("seed", 42, "input-generator seed")
	runs := flag.Int("runs", 3, "measured runs per candidate point (median is kept)")
	passes := flag.Int("passes", 3, "maximum coordinate-descent passes")
	ratios := flag.String("ratios", "1,2,3,4", "candidate mapper/combiner ratios")
	caps := flag.String("caps", "8192,32768,131072", "candidate queue capacities")
	batches := flag.String("batches", "100,500,2000", "candidate combiner batch sizes")
	out := flag.String("out", "", "write the winning profile as JSON to this file")
	load := flag.String("load", "", "load a profile and print the mr.Config it produces (no runs)")
	flag.Parse()

	// Validate the whole flag surface before doing any work.
	if flag.NArg() > 0 {
		fail(2, "unexpected arguments %q (all inputs are flags)", flag.Args())
	}
	if *load != "" {
		if *out != "" {
			fail(2, "-load and -out are mutually exclusive")
		}
		p, err := tuner.LoadProfile(*load)
		if err != nil {
			fail(1, "%v", err)
		}
		cfg := mr.DefaultConfig()
		if err := cfg.ApplyProfile(p); err != nil {
			fail(1, "%v", err)
		}
		fmt.Printf("profile %s (workload %s, engine %s, %.4fs best, %d evaluations, converged=%v)\n",
			*load, p.Workload, p.Engine, p.Seconds, p.Evaluations, p.Converged)
		fmt.Printf("applies as: ratio=%d (combiners derived) queue-capacity=%d batch=%d\n",
			cfg.Ratio, cfg.QueueCapacity, cfg.BatchSize)
		return
	}
	if *runs < 1 {
		fail(2, "-runs must be >= 1, got %d", *runs)
	}
	if *passes < 1 {
		fail(2, "-passes must be >= 1, got %d", *passes)
	}
	sz, err := workloads.ParseSizeClass(*size)
	if err != nil {
		fail(2, "-size: %v", err)
	}
	space := tuner.Space{}
	if space.Ratios, err = parseInts("-ratios", *ratios); err != nil {
		fail(2, "%v", err)
	}
	if space.Capacities, err = parseInts("-caps", *caps); err != nil {
		fail(2, "%v", err)
	}
	if space.Batches, err = parseInts("-batches", *batches); err != nil {
		fail(2, "%v", err)
	}
	if len(space.Ratios)+len(space.Capacities)+len(space.Batches) == 0 {
		fail(2, "empty search space: give at least one of -ratios/-caps/-batches")
	}
	job, err := workloads.NewJob(*app, workloads.HWL, sz, workloads.DefaultContainer(*app), *seed)
	if err != nil {
		fail(2, "%v", err)
	}

	eval := func(p tuner.Point) (float64, error) {
		cfg := mr.DefaultConfig()
		cfg.Ratio = p.Ratio
		cfg.Combiners = 0
		cfg.QueueCapacity = p.QueueCapacity
		cfg.BatchSize = p.BatchSize
		secs := make([]float64, *runs)
		for i := range secs {
			info, err := job.Run(workloads.EngineRAMR, cfg)
			if err != nil {
				return 0, err
			}
			secs[i] = info.Wall.Seconds()
		}
		return median(secs), nil
	}

	base := mr.DefaultConfig()
	start := tuner.Point{Ratio: base.Ratio, QueueCapacity: base.QueueCapacity, BatchSize: base.BatchSize}
	fmt.Printf("tuning %s (%s, seed %d) from %v, %d runs/point\n", job.App, job.InputDesc, *seed, start, *runs)
	res, err := tuner.CoordinateDescent(space, start, eval, tuner.SearchOptions{
		MaxPasses: *passes,
		Log:       func(line string) { fmt.Println("  " + line) },
	})
	if err != nil {
		fail(1, "%v", err)
	}
	fmt.Printf("best: %v (%.4fs) after %d evaluations in %d passes (converged=%v)\n",
		res.Best, res.BestSeconds, len(res.Evaluations), res.Passes, res.Converged)

	if *out != "" {
		prof := &tuner.Profile{
			Workload:    job.App,
			Engine:      "ramr",
			Host:        fmt.Sprintf("%s/%s gomaxprocs=%d", runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0)),
			Best:        res.Best,
			Seconds:     res.BestSeconds,
			Evaluations: len(res.Evaluations),
			Converged:   res.Converged,
			Seed:        *seed,
		}
		if err := prof.WriteFile(*out); err != nil {
			fail(1, "%v", err)
		}
		fmt.Printf("profile written to %s (load with ramrtune -load, or mr.Config.ApplyProfile)\n", *out)
	}
}
