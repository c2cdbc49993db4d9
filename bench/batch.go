package main

import (
	"fmt"
	"runtime"
	"time"

	"ramr/internal/container"
	"ramr/internal/mr"
	"ramr/internal/simarch"
	"ramr/internal/synth"
	"ramr/internal/topology"
	"ramr/internal/workloads"
)

// batchJob is one entry of a library workload's app list.
type batchJob struct {
	name  string // expands core.run_s.<name>
	app   string
	kind  container.Kind
	synth *synth.Params // non-nil for SYNTH entries
	job   *workloads.Job
	want  reference
	build time.Duration
}

// mapSynth is batch_map's SYNTH: a CPU map kernel 30x its combine
// kernel, so the user map function dominates and the queues idle.
func mapSynth(skew float64) *synth.Params {
	p := synth.DefaultParams()
	p.Elements = 100_000
	p.MapKernel = synth.Kernel{Kind: synth.CPU, Intensity: 60}
	p.CombineKernel = synth.Kernel{Kind: synth.CPU, Intensity: 2}
	p.Skew = skew
	return &p
}

func combineList() []batchJob {
	return []batchJob{
		{name: combineApps[0], app: "WC", kind: container.KindHash},
		{name: combineApps[1], app: "WC", kind: container.KindFixedHash},
		{name: combineApps[2], app: "HG", kind: container.KindFixedArray},
		{name: combineApps[3], app: "HG", kind: container.KindFixedHash},
		{name: combineApps[4], app: "LR", kind: container.KindFixedArray},
	}
}

func mapList() []batchJob {
	return []batchJob{
		{name: mapApps[0], app: "MM", kind: container.KindFixedArray},
		{name: mapApps[1], app: "KM", kind: container.KindFixedArray},
		{name: mapApps[2], app: "PCA", kind: container.KindFixedArray},
		{name: mapApps[3], app: "SYNTH", kind: container.KindFixedArray, synth: mapSynth(0)},
		{name: mapApps[4], app: "SYNTH", kind: container.KindFixedArray, synth: mapSynth(1.5)},
	}
}

// buildJob generates the entry's input: HWL-Large Table I parameters
// through workloads.NewJobParams, or synth.NewJob.
func (b *batchJob) buildJob(seed int64) error {
	t0 := time.Now()
	if b.synth != nil {
		b.job = synth.NewJob(*b.synth, seed)
	} else {
		in, err := workloads.Input(b.app, workloads.HWL, workloads.Large)
		if err != nil {
			return err
		}
		if b.job, err = workloads.NewJobParams(b.app, in.Params, b.kind, seed); err != nil {
			return err
		}
	}
	b.build = time.Since(t0)
	return nil
}

func runBatchCombine(rc *runCtx) error { return runBatch(rc, combineList(), 1.9) }
func runBatchMap(rc *runCtx) error     { return runBatch(rc, mapList(), 1.6) }

// engineConfig is the library workloads' configuration: the host-derived
// default (mappers and combiners follow nproc) with threads left to the
// OS scheduler, for the reason given at configBody.
func engineConfig() mr.Config {
	cfg := mr.DefaultConfig()
	cfg.Pin = mr.PinNone
	return cfg
}

// runBatch is the closed-loop, one-caller library driver: rounds over
// the app list on the RAMR engine.
func runBatch(rc *runCtx, list []batchJob, roundsPerSecond float64) error {
	res, tr := rc.res, rc.tr
	cfg := engineConfig()
	resetPeakRSS()

	// Set-up: input generation for every entry.
	_, err := timedSetup(rc, func() (struct{}, error) {
		for i := range list {
			if err := list[i].buildJob(subSeed(rc.seed, res.Workload, i)); err != nil {
				return struct{}{}, err
			}
		}
		return struct{}{}, nil
	}, func(struct{}) {})
	if err != nil {
		return err
	}
	var builds []float64
	for i := range list {
		builds = append(builds, list[i].build.Seconds())
	}
	res.setTiming("workloads.build_s_p50", builds, 0.5)

	// Reference outputs from the Phoenix++ engine, outside the clock.
	for i := range list {
		info, err := list[i].job.Run(workloads.EnginePhoenix, cfg)
		if err != nil {
			return fmt.Errorf("reference run of %s: %w", list[i].name, err)
		}
		list[i].want = referenceOf(info)
	}
	for w := 0; w < rc.warmups(); w++ {
		for i := range list {
			if _, err := list[i].job.Run(workloads.EngineRAMR, cfg); err != nil {
				return fmt.Errorf("warm-up run of %s: %w", list[i].name, err)
			}
		}
	}

	rounds := rc.sized(roundsPerSecond, 1)
	res.Counts["rounds"] = int64(rounds)
	res.Counts["jobs_per_round"] = int64(len(list))
	var (
		roundS     []float64
		runS       = make([][]float64, len(list))
		mapCombine []float64
		reduceS    []float64
		mergeS     []float64
		queue      mr.QueueStats
		steal      mr.StealStats
		ms0, ms1   runtime.MemStats
	)
	runtime.ReadMemStats(&ms0)
	begin := time.Now()
	for r := 0; r < rounds; r++ {
		roundStart := time.Now()
		var mc, rd, mg time.Duration
		for i := range list {
			b := &list[i]
			op := r*len(list) + i + 1
			res.Attempted++
			t0 := time.Now()
			info, err := b.job.Run(workloads.EngineRAMR, cfg)
			t1 := time.Now()
			if err != nil {
				res.fail("round %d %s: %v", r, b.name, err)
				continue
			}
			if got := referenceOf(info); got != b.want {
				res.fail("round %d %s: output %v, Phoenix++ reference %v", r, b.name, got, b.want)
			}
			t2 := time.Now()
			runS[i] = append(runS[i], t1.Sub(t0).Seconds())
			mc += info.Phases.MapCombine
			rd += info.Phases.Reduce
			mg += info.Phases.Merge
			addQueue(&queue, info.Queue)
			if b.synth != nil && b.synth.Skew > 1 {
				steal.Add(info.Steal)
			}
			if tr != nil {
				root := tr.root(op, 0, "job "+b.name, t0, t2)
				run := tr.child(root, op, "job.Run", "core", t0, t1)
				phaseSpans(tr, run, op, t0, info.Phases)
				tr.child(root, op, "verify", "bench", t1, t2)
			}
		}
		roundS = append(roundS, time.Since(roundStart).Seconds())
		mapCombine = append(mapCombine, mc.Seconds())
		reduceS = append(reduceS, rd.Seconds())
		mergeS = append(mergeS, mg.Seconds())
	}
	rc.makespan = time.Since(begin)
	runtime.ReadMemStats(&ms1)

	res.set("makespan_s", rc.makespan.Seconds())
	res.setTiming("round_s_p50", roundS, 0.5)
	res.set("peak_rss_mb", peakRSSMB(0))
	if tr == nil {
		return nil
	}

	for i := range list {
		res.setTiming("core.run_s."+list[i].name, runS[i], 0.5)
	}
	res.setTiming("core.map_combine_s", mapCombine, 0.5)
	res.setTiming("core.reduce_s", reduceS, 0.5)
	res.setTiming("core.merge_s", mergeS, 0.5)
	res.set("core.alloc_mb_per_round", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20)/float64(rounds))
	res.set("core.gc_cycles_per_round", float64(ms1.NumGC-ms0.NumGC)/float64(rounds))
	res.set("core.steal_share", steal.StealRate())
	setQueueShares(res, queue, float64(rounds))

	// Phoenix++ baseline rounds and the DES prediction beside them. The
	// ratio is a diagnostic: at 1 mapper + 1 combiner RAMR is slower.
	baseRounds := 5
	if rc.smoke {
		baseRounds = 1
	}
	var phoenixRound []float64
	phoenixRun := make([][]float64, len(list))
	for r := 0; r < baseRounds; r++ {
		t0 := time.Now()
		for i := range list {
			j0 := time.Now()
			if _, err := list[i].job.Run(workloads.EnginePhoenix, cfg); err != nil {
				return fmt.Errorf("phoenix round of %s: %w", list[i].name, err)
			}
			phoenixRun[i] = append(phoenixRun[i], time.Since(j0).Seconds())
		}
		phoenixRound = append(phoenixRound, time.Since(t0).Seconds())
	}
	// The same rounds under the engine's default pinned placement, which
	// the timed rounds avoid (see configBody): a diagnostic of what the
	// default costs on this host.
	var pinnedRound []float64
	for r := 0; r < min(2, baseRounds); r++ {
		t0 := time.Now()
		for i := range list {
			if _, err := list[i].job.Run(workloads.EngineRAMR, mr.DefaultConfig()); err != nil {
				return fmt.Errorf("pinned round of %s: %w", list[i].name, err)
			}
		}
		pinnedRound = append(pinnedRound, time.Since(t0).Seconds())
	}
	res.set("core.pinned_round_ratio", median(pinnedRound)/median(roundS))
	res.setTiming("phoenix.round_s_p50", phoenixRound, 0.5)
	res.set("phoenix.ratio", median(roundS)/median(phoenixRound))
	predictRatio(res, cfg, list, runS, phoenixRun)
	return nil
}

// phaseSpans lays the engine's sequential phases end to end from the
// start of the run that reported them, as the service's own trace does.
func phaseSpans(tr *tracer, parent, op int, start time.Time, ph mr.PhaseTimes) {
	t := start
	for _, p := range []struct {
		name string
		d    time.Duration
	}{
		{"phase:init", ph.Init},
		{"phase:partition", ph.Partition},
		{"phase:map-combine", ph.MapCombine},
		{"phase:reduce", ph.Reduce},
		{"phase:merge", ph.Merge},
	} {
		if p.d > 0 {
			tr.child(parent, op, p.name, "core."+p.name[len("phase:"):], t, t.Add(p.d))
			t = t.Add(p.d)
		}
	}
}

// addQueue folds one run's SPSC counters into a total.
func addQueue(dst *mr.QueueStats, q mr.QueueStats) {
	dst.Pushes += q.Pushes
	dst.FailedPush += q.FailedPush
	dst.EmptyPolls += q.EmptyPolls
	dst.ShortPolls += q.ShortPolls
	dst.BatchCalls += q.BatchCalls
	dst.SleepMicros += q.SleepMicros
}

// setQueueShares reports the SPSC counters the engine aggregated in
// RunInfo.Queue; sleep is per round (or per job where there are none).
func setQueueShares(res *result, q mr.QueueStats, per float64) {
	res.set("spsc.failed_push_share", q.FailedPushRate())
	res.set("spsc.short_poll_share", q.ShortPollRate())
	if polls := q.BatchCalls + q.EmptyPolls + q.ShortPolls; polls > 0 {
		res.set("spsc.empty_poll_share", float64(q.EmptyPolls)/float64(polls))
	}
	if per > 0 {
		res.set("spsc.sleep_s", float64(q.SleepMicros)/1e6/per)
	}
}

// predictRatio asks the discrete-event model for the RAMR ÷ Phoenix++
// map-combine ratio of the entries it models (the Table I apps) on the
// detected host with the run's worker split, and reports the measured
// ratio of the same entries beside it as the residual.
func predictRatio(res *result, cfg mr.Config, list []batchJob, ramrS, phoenixS [][]float64) {
	m := topology.Detect()
	combiners := cfg.Combiners
	if combiners == 0 {
		combiners = max(1, cfg.Mappers/max(1, cfg.Ratio))
	}
	sc := simarch.Config{Mappers: cfg.Mappers, Combiners: combiners, Pin: cfg.Pin,
		BatchSize: cfg.BatchSize, QueueCap: cfg.QueueCapacity}
	// Each entry's predicted ratio is weighted by its measured Phoenix++
	// time, so the prediction and the measurement describe one round.
	var predicted, gotR, gotP float64
	for i, b := range list {
		if b.synth != nil {
			continue
		}
		w, err := simarch.WorkloadFor(m, b.app, b.kind)
		if err != nil {
			continue
		}
		er, err1 := simarch.SimulateRAMR(m, w, sc)
		ep, err2 := simarch.SimulatePhoenix(m, w, sc)
		if err1 != nil || err2 != nil || ep.Cycles == 0 {
			continue
		}
		predicted += median(phoenixS[i]) * er.Cycles / ep.Cycles
		gotR += median(ramrS[i])
		gotP += median(phoenixS[i])
	}
	if gotP == 0 {
		res.Notes["simarch.ratio_predicted"] = "the model covers no entry of this list on this host"
		return
	}
	res.set("simarch.ratio_predicted", predicted/gotP)
	res.set("simarch.ratio_residual", (gotR-predicted)/gotP)
}
