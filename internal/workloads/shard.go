package workloads

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"ramr/internal/container"
	"ramr/internal/mr"
)

// This file is the worker half of the cluster tier (internal/cluster):
// shard jobs, which export their output as a Partial (partial.go).
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

// Owned is the number of splits sh owns of an input of total splits; its
// k-th is split Index+k*Count.
func (sh ShardSpec) Owned(total int) int { return (total - sh.Index + sh.Count - 1) / sh.Count }

// FillSplits builds a pre-sized input of n items — a shard's splits, or a
// key table's elements — as mr.ForEach's shares at width (width < 1:
// GOMAXPROCS), the caller's among them; the build keeps the width it is
// given, as the grain sizes the finish only. Each share calls fill once
// with a contiguous run [lo, hi) and makes its own generator state —
// stats.Stream, rand.Rand, Zipf — inside it. Split i is a pure function of
// (seed, stream, i), so the bytes are the serial build's for every width
// and every shard. A panic in fill is raised again on the caller, as the
// build's *mr.PanicError.
func FillSplits(n, width int, fill func(lo, hi int)) {
	if width < 1 {
		width = runtime.GOMAXPROCS(0)
	}
	if err := mr.ForEach(n, width, "build", fill); err != nil {
		panic(err)
	}
}

// emptyShardInfo is the result of a shard with no splits (more shards
// than the input has splits): an instantly-complete empty run.
func emptyShardInfo(part *Partial) *RunInfo {
	return &RunInfo{Wall: time.Duration(0), Partial: part, Pairs: 0}
}

// NewShardJobParams instantiates shard sh of the named app with explicit
// generator parameters, building its input on GOMAXPROCS goroutines. Only
// sh's splits are generated — any worker derives the same split i from the
// seed without building the others — and the job runs over them, exporting
// its container as RunInfo.Partial. SYNTH shard jobs are built by
// synth.NewShardJob.
func NewShardJobParams(app string, pr Params, kind container.Kind, seed int64, sh ShardSpec) (*Job, error) {
	return Build(app, pr, kind, seed, &sh, 0)
}

// wordCountShardJob is WordCountJob restricted to one shard, exporting
// the shard's word→count container.
func wordCountShardJob(nBytes int, kind container.Kind, seed int64, sh ShardSpec, width int) *Job {
	splits := generateText(nBytes, seed, sh, width)
	spec := WordCountSpec(splits, kind)
	j := &Job{
		App:       "WC",
		FullName:  "Word Count (shard " + sh.String() + ")",
		Container: kind,
		InputDesc: fmt.Sprintf("shard %s: %d splits of ~%d bytes", sh, len(splits), nBytes),
	}
	return j.Bind(func(ctx context.Context, eng Engine, cfg mr.Config) (*RunInfo, error) {
		if len(splits) == 0 {
			return emptyShardInfo(&Partial{App: "WC"}), nil
		}
		return RunTypedExport(ctx, spec, eng, cfg, wcPairDigest, wordPartial)
	})
}

// histogramShardJob is HistogramJob restricted to one shard, exporting
// the shard's bucket→count container.
func histogramShardJob(nBytes int, kind container.Kind, seed int64, sh ShardSpec, width int) *Job {
	splits := generatePixels(nBytes, seed, sh, width)
	spec := HistogramSpec(splits, kind)
	j := &Job{
		App:       "HG",
		FullName:  "Histogram (shard " + sh.String() + ")",
		Container: kind,
		InputDesc: fmt.Sprintf("shard %s: %d splits of ~%d bytes", sh, len(splits), nBytes),
	}
	return j.Bind(func(ctx context.Context, eng Engine, cfg mr.Config) (*RunInfo, error) {
		if len(splits) == 0 {
			return emptyShardInfo(&Partial{App: "HG"}), nil
		}
		return RunTypedExport(ctx, spec, eng, cfg, hgPairDigest, func(pairs []mr.Pair[int, int]) *Partial {
			return IntPartial("HG", pairs)
		})
	})
}

// synthPairDigest mirrors the SYNTH job's per-pair digest fold
// (synth.NewJob). Kept in sync by TestShardMergeMatchesSingleNode, which
// compares a sharded SYNTH run's merged digest against the unsharded
// job's.
func synthPairDigest(k int, v uint64) uint64 {
	return (uint64(k)*0x9e3779b97f4a7c15 ^ v) * 0xbf58476d1ce4e5b9
}
