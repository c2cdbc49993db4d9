package workloads

import (
	"context"
	"fmt"
	"time"

	"ramr/internal/container"
	"ramr/internal/mr"
)

// This file is the worker half of the cluster tier (internal/cluster):
// shard jobs and the Partial containers they export.
//
// A shard job is a normal Table I job over the splits whose index is
// congruent to ShardSpec.Index modulo ShardSpec.Count, and it builds only
// those: split i is a pure function of the seed and i (see generateText),
// so a worker materialises 1/Count of the input. The Count shards cover
// the input exactly once, so per-key sums merged across shards equal the
// single-node run's output bit for bit. Each shard run exports its full
// key→value container as a Partial (the in-node combining of Lee et al.:
// a node touches its own share and ships aggregates); the coordinator
// merges Partials with MergePartials and re-derives the app's digest with
// Summary, which reuses the exact per-pair folds of the unsharded jobs.
//
// Only apps with exact (integer) arithmetic and an associative,
// commutative combine are shardable: WC, HG and SYNTH. Float apps (KM,
// PCA, LR's closed form) merge only approximately and are rejected.

// ShardSpec selects one shard of a sharded job: the splits whose index i
// satisfies i % Count == Index.
type ShardSpec struct {
	Index int `json:"index"`
	Count int `json:"count"`
}

// Validate checks the shard coordinates.
func (sh ShardSpec) Validate() error {
	if sh.Count < 1 {
		return fmt.Errorf("shard count must be >= 1, got %d", sh.Count)
	}
	if sh.Index < 0 || sh.Index >= sh.Count {
		return fmt.Errorf("shard index must be in [0, %d), got %d", sh.Count, sh.Index)
	}
	return nil
}

// String renders the shard as "index/count".
func (sh ShardSpec) String() string { return fmt.Sprintf("%d/%d", sh.Index, sh.Count) }

// Partial is the type-erased, JSON-serializable partial result of one
// shard run: the shard's full key→value container. Exactly one of
// Str/Int is populated, by key type. Values are the app's exact integer
// aggregates (uint64 addition is associative and commutative, and every
// shardable app's combine is plain addition — possibly wrapping, which
// merging reproduces).
type Partial struct {
	// App names the workload whose folds apply (WC, HG, SYNTH).
	App string `json:"app"`
	// Str holds string-keyed aggregates (WC).
	Str map[string]int64 `json:"str,omitempty"`
	// Int holds int-keyed aggregates (HG, SYNTH).
	Int map[int]uint64 `json:"int,omitempty"`
}

// Len is the number of distinct keys in the partial.
func (p *Partial) Len() int {
	if p == nil {
		return 0
	}
	return len(p.Str) + len(p.Int)
}

// ShardableApps lists the apps that support shard jobs, sorted.
func ShardableApps() []string { return []string{"HG", "SYNTH", "WC"} }

// Shardable reports whether the named app supports shard jobs. SYNTH
// shard jobs are built by the synth package; the Table I apps here.
func Shardable(app string) bool {
	for _, a := range ShardableApps() {
		if a == app {
			return true
		}
	}
	return false
}

// ShardSplits returns the subset of splits belonging to sh: every
// Count-th split starting at Index. Exported so the synth package can
// apply the same partitioning to its generated ranges.
func ShardSplits[T any](splits []T, sh ShardSpec) []T {
	var out []T
	for i := sh.Index; i < len(splits); i += sh.Count {
		out = append(out, splits[i])
	}
	return out
}

// emptyShardInfo is the result of a shard with no splits (more shards
// than the input has splits): an instantly-complete empty run.
func emptyShardInfo(part *Partial) *RunInfo {
	return &RunInfo{Wall: time.Duration(0), Partial: part, Pairs: 0}
}

// NewShardJobParams instantiates shard sh of the named app with explicit
// generator parameters. Only sh's splits are generated — any worker
// derives the same split i from the seed without building the others —
// and the job runs over them, exporting its container as RunInfo.Partial.
// SYNTH shard jobs are built by synth.NewShardJob.
func NewShardJobParams(app string, pr Params, kind container.Kind, seed int64, sh ShardSpec) (*Job, error) {
	if err := sh.Validate(); err != nil {
		return nil, fmt.Errorf("workloads: shard %s: %v", app, err)
	}
	switch app {
	case "WC":
		return wordCountShardJob(pr.Bytes, kind, seed, sh), nil
	case "HG":
		return histogramShardJob(pr.Bytes, kind, seed, sh), nil
	default:
		return nil, fmt.Errorf("workloads: app %q is not shardable (want one of %v; float-valued apps merge only approximately)",
			app, ShardableApps())
	}
}

// wordCountShardJob is WordCountJob restricted to one shard, exporting
// the shard's word→count container.
func wordCountShardJob(nBytes int, kind container.Kind, seed int64, sh ShardSpec) *Job {
	splits := generateText(nBytes, seed, sh)
	spec := WordCountSpec(splits, kind)
	j := &Job{
		App:       "WC",
		FullName:  "Word Count (shard " + sh.String() + ")",
		Container: kind,
		InputDesc: fmt.Sprintf("shard %s: %d splits of ~%d bytes", sh, len(splits), nBytes),
	}
	return j.Bind(func(ctx context.Context, eng Engine, cfg mr.Config) (*RunInfo, error) {
		part := &Partial{App: "WC", Str: make(map[string]int64)}
		if len(splits) == 0 {
			return emptyShardInfo(part), nil
		}
		info, err := RunTypedExport(ctx, spec, eng, cfg, wcPairDigest, func(k string, v int) {
			part.Str[k] = int64(v)
		})
		if info != nil {
			info.Partial = part
		}
		return info, err
	})
}

// histogramShardJob is HistogramJob restricted to one shard, exporting
// the shard's bucket→count container.
func histogramShardJob(nBytes int, kind container.Kind, seed int64, sh ShardSpec) *Job {
	splits := generatePixels(nBytes, seed, sh)
	spec := HistogramSpec(splits, kind)
	j := &Job{
		App:       "HG",
		FullName:  "Histogram (shard " + sh.String() + ")",
		Container: kind,
		InputDesc: fmt.Sprintf("shard %s: %d splits of ~%d bytes", sh, len(splits), nBytes),
	}
	return j.Bind(func(ctx context.Context, eng Engine, cfg mr.Config) (*RunInfo, error) {
		part := &Partial{App: "HG", Int: make(map[int]uint64)}
		if len(splits) == 0 {
			return emptyShardInfo(part), nil
		}
		info, err := RunTypedExport(ctx, spec, eng, cfg, hgPairDigest, func(k, v int) {
			part.Int[k] = uint64(v)
		})
		if info != nil {
			info.Partial = part
		}
		return info, err
	})
}

// synthPairDigest mirrors the SYNTH job's per-pair digest fold
// (synth.NewJob). Kept in sync by TestShardMergeMatchesSingleNode, which
// compares a sharded SYNTH run's merged digest against the unsharded
// job's.
func synthPairDigest(k int, v uint64) uint64 {
	return (uint64(k)*0x9e3779b97f4a7c15 ^ v) * 0xbf58476d1ce4e5b9
}

// MergePartials folds shard partials into one: per-key sums with the
// same (wrapping) integer addition the engines' Combine uses. All
// partials must belong to the same app; nil entries are skipped.
func MergePartials(parts []*Partial) (*Partial, error) {
	var out *Partial
	for _, p := range parts {
		if p == nil {
			continue
		}
		if p.Str != nil && p.Int != nil {
			return nil, fmt.Errorf("workloads: partial of app %q populates both key spaces", p.App)
		}
		if out == nil {
			out = &Partial{App: p.App}
			if p.Str != nil || p.Int == nil {
				out.Str = make(map[string]int64)
			}
			if p.Int != nil {
				out.Int = make(map[int]uint64)
			}
		}
		if p.App != out.App {
			return nil, fmt.Errorf("workloads: merging partials of different apps (%q vs %q)", p.App, out.App)
		}
		for k, v := range p.Str {
			if out.Str == nil {
				return nil, fmt.Errorf("workloads: partial of app %q mixes string and int keys", p.App)
			}
			out.Str[k] += v
		}
		for k, v := range p.Int {
			if out.Int == nil {
				return nil, fmt.Errorf("workloads: partial of app %q mixes string and int keys", p.App)
			}
			out.Int[k] += v
		}
	}
	if out == nil {
		return nil, fmt.Errorf("workloads: no partials to merge")
	}
	return out, nil
}

// Summary derives the merged result's figures: the number of distinct
// keys and the app's order-independent output digest — the identical
// fold the unsharded job applies pair by pair, so a fully merged Partial
// summarizes to the single-node run's exact digest.
func (p *Partial) Summary() (pairs int, digest uint64, err error) {
	if p == nil {
		return 0, 0, fmt.Errorf("workloads: nil partial")
	}
	switch p.App {
	case "WC":
		for k, v := range p.Str {
			digest += wcPairDigest(k, int(v))
		}
		return len(p.Str), digest, nil
	case "HG":
		for k, v := range p.Int {
			digest += hgPairDigest(k, int(v))
		}
		return len(p.Int), digest, nil
	case "SYNTH":
		for k, v := range p.Int {
			digest += synthPairDigest(k, v)
		}
		return len(p.Int), digest, nil
	default:
		return 0, 0, fmt.Errorf("workloads: app %q has no partial summary", p.App)
	}
}
