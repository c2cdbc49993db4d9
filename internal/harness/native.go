package harness

import (
	"fmt"
	"runtime"
	"time"

	"ramr/internal/mr"
	"ramr/internal/stats"
	"ramr/internal/synth"
	"ramr/internal/workloads"
)

func init() {
	register(Experiment{ID: "fig1", Title: "MapReduce phase run-time breakdown, Phoenix engine (Fig. 1)", Native: true, Run: runFig1})
	register(Experiment{ID: "fig4", Title: "Synthetic suite: combine intensity vs mapper/combiner ratio (Fig. 4)", Native: true, Run: runFig4})
	register(Experiment{ID: "native8a", Title: "Native host re-run of Fig. 8a (RAMR vs Phoenix++, default containers)", Native: true, Run: nativeSpeedups(false)})
	register(Experiment{ID: "native8b", Title: "Native host re-run of Fig. 8b (RAMR vs Phoenix++, memory-intensive containers)", Native: true, Run: nativeSpeedups(true)})
	register(Experiment{ID: "tasksize", Title: "Task-size sensitivity, native (§III tuning discussion)", Native: true, Run: runTaskSize})
}

// hostConfig returns a runnable configuration for the current host with
// the given mapper/combiner split of the total worker budget, attaching
// the Options' trace collector and telemetry so measured runs are
// observable. Ratio probes (bestHostRatio) use bareHostConfig instead to
// keep throwaway runs out of the instrumentation.
func (o Options) hostConfig(ratio int) mr.Config {
	cfg := bareHostConfig(ratio)
	cfg.Trace = o.Trace
	cfg.Telemetry = o.Telemetry
	return cfg
}

// bareHostConfig is hostConfig without instrumentation.
func bareHostConfig(ratio int) mr.Config {
	cfg := mr.DefaultConfig()
	cfg.Mappers, cfg.Combiners = mr.SplitWorkers(max(runtime.GOMAXPROCS(0), 2), ratio)
	return cfg
}

// timeJob runs a job n times on an engine and returns the mean and stddev
// of the wall-clock seconds.
func timeJob(job *workloads.Job, eng workloads.Engine, cfg mr.Config, n int) (mean, sd float64, err error) {
	if n < 1 {
		n = 1
	}
	samples := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		info, rerr := job.Run(eng, cfg)
		if rerr != nil {
			return 0, 0, rerr
		}
		samples = append(samples, info.Wall.Seconds())
	}
	return stats.Mean(samples), stats.StdDev(samples), nil
}

// runFig1 measures the per-phase breakdown of the six apps on the Phoenix
// engine (the paper profiles the de-facto suite to show map-combine
// dominates at 82.4% on average).
func runFig1(o Options) (*Report, error) {
	rep := &Report{
		Columns: []string{"init%", "partition%", "map-combine%", "reduce%", "merge%"},
		Notes:   []string{"paper: map-combine averages 82.4% of run time across the suite"},
	}
	class := workloads.Large
	if o.Quick {
		class = workloads.Small
	}
	cfg := o.hostConfig(1)
	var mcSum float64
	for _, app := range suite {
		job, err := workloads.NewJob(app, workloads.HWL, class, containerFor(app, false), o.Seed)
		if err != nil {
			return nil, err
		}
		info, err := job.Run(workloads.EnginePhoenix, cfg)
		if err != nil {
			return nil, err
		}
		i, p, mc, r, m := info.Phases.Fractions()
		mcSum += mc
		rep.Rows = append(rep.Rows, Row{Label: app, Values: []float64{i * 100, p * 100, mc * 100, r * 100, m * 100}})
	}
	rep.Rows = append(rep.Rows, Row{Label: "AVG map-combine", Values: []float64{0, 0, mcSum / float64(len(suite)) * 100, 0, 0}})
	return rep, nil
}

// fig4Intensities is the combine-intensity sweep (iterations per combine
// invocation; proportional to the paper's instructions-per-task x-axis).
var fig4Intensities = []int{2, 8, 24, 64, 160}

// runFig4 reruns the paper's synthetic use-case natively: fixed
// CPU-intensive map, memory-intensive combine of growing intensity, under
// mapper/combiner ratios 3, 2 and 1, with Phoenix++ included.
func runFig4(o Options) (*Report, error) {
	rep := &Report{
		Columns: []string{},
		Notes: []string{
			"expected shape (paper Fig. 4): light combine -> ratio 3 best;",
			"moderate -> ratio 2; heavy -> ratio 1 (equal mappers and combiners)",
			"values are run-time seconds (mean of runs)",
		},
	}
	for _, it := range fig4Intensities {
		rep.Columns = append(rep.Columns, fmt.Sprintf("c=%d", it))
	}
	params := synth.DefaultParams()
	runs := o.Runs
	if runs == 0 {
		runs = 3
	}
	if o.Quick {
		params.Elements /= 8
		runs = 1
	}
	type series struct {
		label string
		run   func(p synth.Params) (float64, error)
	}
	var all []series
	for _, ratio := range []int{3, 2, 1} {
		ratio := ratio
		all = append(all, series{
			label: fmt.Sprintf("RAMR ratio=%d", ratio),
			run: func(p synth.Params) (float64, error) {
				job := synth.NewJob(p, o.Seed)
				m, _, err := timeJob(job, workloads.EngineRAMR, o.hostConfig(ratio), runs)
				return m, err
			},
		})
	}
	all = append(all, series{
		label: "Phoenix++",
		run: func(p synth.Params) (float64, error) {
			job := synth.NewJob(p, o.Seed)
			m, _, err := timeJob(job, workloads.EnginePhoenix, o.hostConfig(1), runs)
			return m, err
		},
	})
	for _, s := range all {
		var vals []float64
		for _, it := range fig4Intensities {
			p := params
			p.CombineKernel = synth.Kernel{Kind: synth.Memory, Intensity: it}
			v, err := s.run(p)
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
		}
		rep.Rows = append(rep.Rows, Row{Label: s.label, Values: vals})
	}
	return rep, nil
}

// nativeSpeedups re-runs the Fig. 8 comparison with the real engines on
// the current host across the three Table I flavors.
func nativeSpeedups(stress bool) func(Options) (*Report, error) {
	return func(o Options) (*Report, error) {
		rep := &Report{
			Columns: []string{"Small", "Medium", "Large"},
			Notes: []string{
				"speedup = Phoenix++ mean time / RAMR mean time on this host",
				fmt.Sprintf("host: %d logical CPUs (GOMAXPROCS)", runtime.GOMAXPROCS(0)),
				"absolute factors depend on the host; the paper's platform-dependent factors are reproduced by fig8*/fig9*",
			},
		}
		runs := o.Runs
		if runs == 0 {
			runs = 5
		}
		classes := workloads.SizeClasses()
		if o.Quick {
			classes = classes[:1]
			runs = 2
		}
		for _, app := range suite {
			var vals []float64
			for _, class := range classes {
				job, err := workloads.NewJob(app, workloads.HWL, class, containerFor(app, stress), o.Seed)
				if err != nil {
					return nil, err
				}
				// Ratio tuned per app on the host (the paper tunes the
				// mapper/combiner ratio per application), then measured.
				ra, _, err := timeJob(job, workloads.EngineRAMR, o.hostConfig(bestHostRatio(job)), runs)
				if err != nil {
					return nil, err
				}
				ph, _, err := timeJob(job, workloads.EnginePhoenix, o.hostConfig(1), runs)
				if err != nil {
					return nil, err
				}
				vals = append(vals, ph/ra)
			}
			for len(vals) < 3 {
				vals = append(vals, 0)
			}
			rep.Rows = append(rep.Rows, Row{Label: app, Values: vals})
		}
		return rep, nil
	}
}

// bestHostRatio probes a small ratio grid on the host and returns the
// fastest, re-measuring briefly.
func bestHostRatio(job *workloads.Job) int {
	best, bestR := 0.0, 1
	for _, ratio := range []int{1, 2, 4} {
		start := time.Now()
		if _, err := job.Run(workloads.EngineRAMR, bareHostConfig(ratio)); err != nil {
			continue
		}
		el := time.Since(start).Seconds()
		if best == 0 || el < best {
			best, bestR = el, ratio
		}
	}
	return bestR
}

// runTaskSize sweeps the splits-per-task knob on the native engine — the
// §III trade-off: "large task sizes result in substandard load balancing,
// while small task sizes result in non-negligible library overhead".
func runTaskSize(o Options) (*Report, error) {
	rep := &Report{
		Columns: []string{},
		Notes: []string{
			"run-time seconds per task size; expect a shallow U: overhead on the far left,",
			"load imbalance on the far right (visible on multicore hosts)",
		},
	}
	sizes := []int{1, 2, 4, 16, 64, 256}
	for _, ts := range sizes {
		rep.Columns = append(rep.Columns, fmt.Sprintf("task=%d", ts))
	}
	runs := o.Runs
	if runs == 0 {
		runs = 3
	}
	apps := []string{"LR", "KM"}
	if o.Quick {
		apps = apps[:1]
		runs = 1
	}
	for _, app := range apps {
		job, err := workloads.NewJob(app, workloads.PHI, workloads.Small, containerFor(app, false), o.Seed)
		if err != nil {
			return nil, err
		}
		var vals []float64
		for _, ts := range sizes {
			cfg := o.hostConfig(1)
			cfg.TaskSize = ts
			m, _, err := timeJob(job, workloads.EngineRAMR, cfg, runs)
			if err != nil {
				return nil, err
			}
			vals = append(vals, m)
		}
		rep.Rows = append(rep.Rows, Row{Label: app, Values: vals})
	}
	return rep, nil
}
