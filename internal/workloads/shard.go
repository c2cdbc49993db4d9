package workloads

import (
	"fmt"
	"runtime"

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
// Summary, which applies the very per-pair fold of the unsharded job. An
// app has one constructor for its whole job and every shard of it
// (BindSpec).
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

// whole is the one shard that is the whole input.
var whole = ShardSpec{Index: 0, Count: 1}

// orWhole is sh, or the whole input when sh is nil.
func (sh *ShardSpec) orWhole() ShardSpec {
	if sh == nil {
		return whole
	}
	return *sh
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
