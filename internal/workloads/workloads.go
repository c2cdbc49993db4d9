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
	"strings"
	"time"

	"ramr/internal/container"
	"ramr/internal/core"
	"ramr/internal/mr"
	"ramr/internal/telemetry"
)

// Engine selects which runtime executes a job.
type Engine int

const (
	// EngineRAMR is the decoupled, overlapped runtime (the paper's
	// contribution).
	EngineRAMR Engine = iota
	// EnginePhoenix is the fused Phoenix++-style baseline.
	EnginePhoenix
	// EngineReference is mr.Reference, the serial oracle tests check both
	// engines against. It is never parsed from a name, so it cannot reach
	// the wire; its RunInfo carries only the output and the wall time.
	EngineReference
)

// String names the engine for reports.
func (e Engine) String() string {
	switch e {
	case EngineRAMR:
		return "RAMR"
	case EnginePhoenix:
		return "Phoenix++"
	case EngineReference:
		return "reference"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// ParseEngine maps an engine name, case-insensitively, to its engine; the
// empty name is RAMR.
func ParseEngine(s string) (Engine, error) {
	switch strings.ToLower(s) {
	case "", "ramr":
		return EngineRAMR, nil
	case "phoenix", "phoenix++":
		return EnginePhoenix, nil
	default:
		return 0, fmt.Errorf("unknown engine %q (want ramr|phoenix)", s)
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
	// Queue aggregates SPSC counters (zero unless RAMR shipped pairs).
	Queue mr.QueueStats
	// Steal aggregates the map phase's task takes by distance class.
	Steal mr.StealStats
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
	// fields via BindSpec.
	RunCtx func(ctx context.Context, eng Engine, cfg mr.Config) (*RunInfo, error)
}

// BindSpec makes j run spec: it sets j's entry points to execute spec on
// the chosen engine, with cancellation, and erase its types, and returns j,
// so each app defines its execution exactly once. digest, when non-nil,
// folds each output pair into the run's order-independent checksum. When sh
// is non-nil, j is shard sh of its app: BindSpec names the shard in
// FullName and InputDesc, and export is handed the run's output pairs,
// sorted by spec.Less, to lift into the type-erased Partial that crosses
// the cluster wire (shard.go); a shard that owns no splits settles at once,
// empty, with an empty partial. Each shardable app — WC, HG and
// internal/synth's SYNTH — builds its whole job and every shard of it
// through one constructor that ends here.
func BindSpec[S any, K comparable, V, R any](j *Job, spec *mr.Spec[S, K, V, R], sh *ShardSpec, digest func(K, R) uint64, export func([]mr.Pair[K, R]) *Partial) *Job {
	if sh == nil {
		export = nil
	} else {
		j.FullName += " (shard " + sh.String() + ")"
		j.InputDesc = "shard " + sh.String() + ", " + j.InputDesc
	}
	run := func(ctx context.Context, eng Engine, cfg mr.Config) (*RunInfo, error) {
		if export != nil && len(spec.Splits) == 0 {
			return &RunInfo{Partial: &Partial{App: j.App}}, nil
		}
		start := time.Now()
		var (
			res *mr.Result[K, R]
			err error
		)
		switch eng {
		case EngineRAMR:
			res, err = core.RunContext(ctx, spec, cfg)
		case EnginePhoenix:
			res, err = core.RunPhoenixContext(ctx, spec, cfg)
		case EngineReference:
			res = &mr.Result[K, R]{Pairs: mr.Reference(spec)}
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
			Pairs:     len(res.Pairs),
			Telemetry: res.Telemetry,
		}
		if digest != nil {
			for _, p := range res.Pairs {
				info.Digest += digest(p.Key, p.Value)
			}
		}
		if export != nil {
			info.Partial = export(res.Pairs)
		}
		return info, nil
	}
	j.RunCtx = run
	j.Run = func(eng Engine, cfg mr.Config) (*RunInfo, error) {
		return run(context.Background(), eng, cfg)
	}
	return j
}

// intPairDigest folds one output pair of an int-keyed Table I app (HG, LR,
// PCA, MM) into the run's order-independent digest; a merged HG partial's
// Summary re-applies it.
func intPairDigest[V int | int64 | uint64](k int, v V) uint64 {
	return mix(uint64(k)*0x9e3779b97f4a7c15 ^ uint64(v))
}

// SynthPairDigest folds one output pair of the synthetic job
// (internal/synth) into the order-independent digest of its batch run, of
// a merged shard partial's Summary and of a stream window.
func SynthPairDigest(k int, v uint64) uint64 {
	return (uint64(k)*0x9e3779b97f4a7c15 ^ v) * 0xbf58476d1ce4e5b9
}

// mix is the 64-bit finalizer used for digests.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv1a hashes a string key for a digest, with FNV-1a. A digest is a wire
// format — memo keys, shard partials and goldens rest on it — so its string
// hash is fixed here, apart from whatever hash the tables probe with.
func fnv1a(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// AppNames lists the suite in the paper's presentation order.
func AppNames() []string { return []string{"HG", "KM", "LR", "MM", "PCA", "WC"} }
