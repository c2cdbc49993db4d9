// Command ramrsynth drives the workload-aware synthetic test-suite
// (§III-C): MapReduce jobs with independently configurable map and combine
// kernel types and intensities, runnable on either engine.
//
// Usage:
//
//	ramrsynth -map cpu:60 -combine memory:40 -ratio 2
//	ramrsynth -map cpu:60 -combine memory:40 -engine phoenix
//	ramrsynth -elements 1000000 -keys 4096 -batch 500
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"ramr/internal/mr"
	"ramr/internal/obs"
	"ramr/internal/synth"
	"ramr/internal/workloads"
)

func main() {
	mapK := flag.String("map", "cpu:60", "map kernel as kind:intensity")
	combK := flag.String("combine", "memory:20", "combine kernel as kind:intensity")
	elements := flag.Int("elements", 200_000, "number of input elements")
	keys := flag.Int("keys", 1024, "intermediate key range")
	engine := flag.String("engine", "ramr", "engine: ramr | phoenix")
	ratio := flag.Int("ratio", 1, "mapper/combiner ratio (ramr engine)")
	batch := flag.Int("batch", mr.DefaultBatchSize, "combiner batch size")
	seed := flag.Int64("seed", 42, "input seed")
	skew := flag.Float64("skew", 0, "zipf exponent shaping split sizes and keys (0 = uniform, else must be > 1)")
	traceOut := flag.String("trace", "", "write a Chrome trace of the run to this file (view at chrome://tracing)")
	flag.Parse()

	// Validate every flag before generating input or running: a bad value
	// should produce a usage message, not a mid-run panic (e.g. -ratio -1
	// used to divide by zero when sizing the worker split).
	fatalf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "ramrsynth: "+format+"\n", args...)
		os.Exit(2)
	}
	if flag.NArg() > 0 {
		fatalf("unexpected arguments %q (all inputs are flags)", flag.Args())
	}
	if *elements < 1 {
		fatalf("-elements must be >= 1, got %d", *elements)
	}
	if *keys < 1 {
		fatalf("-keys must be >= 1, got %d", *keys)
	}
	if *ratio < 1 {
		fatalf("-ratio must be >= 1, got %d", *ratio)
	}
	if *batch < 1 {
		fatalf("-batch must be >= 1, got %d", *batch)
	}
	if *skew != 0 && *skew <= 1 {
		fatalf("-skew must be 0 (uniform) or > 1 (zipf exponent), got %g", *skew)
	}
	eng, err := workloads.ParseEngine(*engine)
	if err != nil {
		fatalf("%v", err)
	}
	mk, err := synth.ParseKernel(*mapK)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ramrsynth: -map:", err)
		os.Exit(2)
	}
	ck, err := synth.ParseKernel(*combK)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ramrsynth: -combine:", err)
		os.Exit(2)
	}

	params := synth.DefaultParams()
	params.Elements = *elements
	params.Keys = *keys
	params.MapKernel = mk
	params.CombineKernel = ck
	params.Skew = *skew
	job := synth.NewJob(params, *seed)

	// Start from the environment so RAMR_* knobs (RAMR_STEAL=off for the
	// static-steering baseline, RAMR_PIN, RAMR_QUEUE_CAP, ...) apply; the
	// worker split below is derived from -ratio and overrides any
	// RAMR_MAPPERS/RAMR_COMBINERS setting.
	cfg, err := mr.FromEnv()
	if err != nil {
		fatalf("%v", err)
	}
	cfg.Mappers, cfg.Combiners = mr.SplitWorkers(runtime.GOMAXPROCS(0), *ratio)
	cfg.BatchSize = *batch

	var collector *obs.Recorder
	if *traceOut != "" {
		collector = obs.New("")
		cfg.Trace = collector
	}

	info, err := job.Run(eng, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ramrsynth:", err)
		os.Exit(1)
	}
	fmt.Printf("%s on %s: %v (map-combine %v)\n", job.FullName, eng, info.Wall, info.Phases.MapCombine)
	fmt.Printf("phases: %s\n", info.Phases)
	fmt.Printf("output keys: %d  digest: %#x\n", info.Pairs, info.Digest)
	if eng == workloads.EngineRAMR {
		fmt.Printf("queues: %s\n", info.Queue)
		if info.Steal.TotalTasks() > 0 {
			fmt.Printf("steals: %s\n", info.Steal.String())
		}
	}
	if collector != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ramrsynth:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := collector.WriteChromeTrace(f); err != nil {
			fmt.Fprintln(os.Stderr, "ramrsynth:", err)
			os.Exit(1)
		}
		fmt.Printf("chrome trace written to %s; per-worker utilization:\n", *traceOut)
		if err := collector.Summary(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "ramrsynth:", err)
			os.Exit(1)
		}
	}
}
