// Package workloads implements the six applications of the Phoenix++
// benchmark suite that the paper evaluates (§IV-A): Word Count (WC),
// Histogram (HG), Linear Regression (LR), KMeans (KM), PCA and Matrix
// Multiply (MM), each with a deterministic synthetic input generator and a
// type-erased Job adapter so the benchmark harness can run any app through
// either engine without knowing its type parameters.
//
// Input sizes follow Table I of the paper proportionally: the Small/
// Medium/Large grid per platform keeps the paper's ratios, with absolute
// sizes scaled down (documented in EXPERIMENTS.md) so the whole evaluation
// runs in CI time on a laptop-class host.
package workloads

import (
	"context"
	"fmt"
	"time"

	"ramr/internal/container"
	"ramr/internal/core"
	"ramr/internal/mr"
	"ramr/internal/phoenix"
	"ramr/internal/telemetry"
	"ramr/internal/tuner"
)

// Engine selects which runtime executes a job.
type Engine int

const (
	// EngineRAMR is the decoupled, overlapped runtime (the paper's
	// contribution).
	EngineRAMR Engine = iota
	// EnginePhoenix is the fused Phoenix++-style baseline.
	EnginePhoenix
)

// String names the engine for reports.
func (e Engine) String() string {
	switch e {
	case EngineRAMR:
		return "RAMR"
	case EnginePhoenix:
		return "Phoenix++"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// RunInfo is the type-erased result of one job execution.
type RunInfo struct {
	// Wall is the end-to-end wall-clock duration of the invocation.
	Wall time.Duration
	// Build is the caller's input build before the invocation, when it
	// measured one (the job service does).
	Build time.Duration
	// Phases is the engine's per-phase breakdown.
	Phases mr.PhaseTimes
	// Queue aggregates SPSC counters (RAMR engine only).
	Queue mr.QueueStats
	// Steal aggregates the map phase's work-stealing counters by
	// distance class (RAMR engine only).
	Steal mr.StealStats
	// Help counts the map tasks combiner slots ran and the pairs either
	// pool folded in place (RAMR engine only; see mr.HelpStats).
	Help mr.HelpStats
	// Pairs is the number of distinct output keys.
	Pairs int
	// Digest is an order-independent hash of the output for
	// exact-arithmetic apps, or 0 when the app's values are floating
	// point (engines then agree only approximately, because combine
	// order differs).
	Digest uint64
	// Telemetry is the structured run report when the Config carried a
	// Telemetry; nil otherwise.
	Telemetry *telemetry.Report
	// Tuner is the online tuner's decision log when the Config carried a
	// tuner (RAMR engine only); nil otherwise. The job service retains
	// it per job.
	Tuner *tuner.Report
	// Partial is the exported partial result container of a shard job
	// (see shard.go): the full key→value map of this run, in a
	// JSON-serializable shape a cluster coordinator can merge with other
	// shards' partials. nil for unsharded runs.
	Partial *Partial
}

// Job is a ready-to-run application instance.
type Job struct {
	// App is the paper's short name: WC, HG, LR, KM, PCA, MM.
	App string
	// FullName is the spelled-out application name.
	FullName string
	// Container is the intermediate container configuration in use.
	Container container.Kind
	// InputDesc describes the generated input for reports.
	InputDesc string
	// Run executes the job on the selected engine.
	Run func(eng Engine, cfg mr.Config) (*RunInfo, error)
	// RunCtx is Run with cancellation: once ctx is cancelled the engine
	// stops taking tasks, drains and returns ctx's error. The job
	// service's DELETE path runs jobs through it. Constructors set both
	// fields via Bind.
	RunCtx func(ctx context.Context, eng Engine, cfg mr.Config) (*RunInfo, error)
}

// Bind sets both run entry points from one context-aware closure and
// returns the job, so each constructor defines its execution exactly once.
func (j *Job) Bind(run func(ctx context.Context, eng Engine, cfg mr.Config) (*RunInfo, error)) *Job {
	j.RunCtx = run
	j.Run = func(eng Engine, cfg mr.Config) (*RunInfo, error) {
		return run(context.Background(), eng, cfg)
	}
	return j
}

// RunTyped executes a typed spec on the chosen engine and erases the
// types. digest, when non-nil, folds each output pair into an
// order-independent checksum. Exported so sibling packages (synth) can
// adapt their own typed specs into Jobs.
func RunTyped[S any, K comparable, V, R any](spec *mr.Spec[S, K, V, R], eng Engine, cfg mr.Config, digest func(K, R) uint64) (*RunInfo, error) {
	return RunTypedContext(context.Background(), spec, eng, cfg, digest)
}

// RunTypedContext is RunTyped with cancellation, the entry point behind
// Job.RunCtx.
func RunTypedContext[S any, K comparable, V, R any](ctx context.Context, spec *mr.Spec[S, K, V, R], eng Engine, cfg mr.Config, digest func(K, R) uint64) (*RunInfo, error) {
	return RunTypedExport(ctx, spec, eng, cfg, digest, nil)
}

// RunTypedExport is RunTypedContext with an optional per-pair export
// callback, invoked once for every output pair after the run completes.
// Shard jobs use it to lift their typed output into the type-erased
// Partial that crosses the cluster wire (see shard.go); a nil export is
// the plain batch path.
func RunTypedExport[S any, K comparable, V, R any](ctx context.Context, spec *mr.Spec[S, K, V, R], eng Engine, cfg mr.Config, digest func(K, R) uint64, export func(K, R)) (*RunInfo, error) {
	start := time.Now()
	var (
		res *mr.Result[K, R]
		err error
	)
	switch eng {
	case EngineRAMR:
		res, err = core.RunContext(ctx, spec, cfg)
	case EnginePhoenix:
		res, err = phoenix.RunContext(ctx, spec, cfg)
	default:
		return nil, fmt.Errorf("workloads: unknown engine %v", eng)
	}
	if err != nil {
		return nil, err
	}
	info := &RunInfo{
		Wall:      time.Since(start),
		Phases:    res.Phases,
		Queue:     res.QueueStats,
		Steal:     res.Steal,
		Help:      res.Help,
		Pairs:     len(res.Pairs),
		Telemetry: res.Telemetry,
		Tuner:     res.TunerReport,
	}
	if digest != nil {
		var d uint64
		for _, p := range res.Pairs {
			d += digest(p.Key, p.Value)
		}
		info.Digest = d
	}
	if export != nil {
		for _, p := range res.Pairs {
			export(p.Key, p.Value)
		}
	}
	return info, nil
}

// mix is the 64-bit finalizer used for digests.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// AppNames lists the suite in the paper's presentation order.
func AppNames() []string { return []string{"HG", "KM", "LR", "MM", "PCA", "WC"} }
