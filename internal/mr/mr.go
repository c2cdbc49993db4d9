// Package mr defines the MapReduce job model shared by the two execution
// engines in this repository, both run by internal/core: the decoupled RAMR
// runtime and the Phoenix++-style baseline.
//
// The workflow follows the shared-memory MapReduce lineage the paper builds
// on (Phoenix → Phoenix Rebirth → Phoenix++): the input is partitioned into
// splits, map tasks emit intermediate key-value pairs, a combine function
// folds pairs with equal keys into per-worker containers, a reduce function
// finalizes each key, and a merge produces the ordered output. The engines
// share one batch body and differ in task dispatch and placement: RAMR's
// workers take tasks from locality-group deques with stealing and are
// pinned by its plan, and where that plan puts a combiner on an SMT sibling
// of its mappers its combine runs on separate combiner threads fed by SPSC
// queues; Phoenix++'s
// unpinned workers take tasks from one shared deque and always fold where
// they map. Reference is the serial oracle both are checked against.
package mr

import (
	"errors"
	"fmt"
	"time"

	"ramr/internal/container"
	"ramr/internal/spsc"
	"ramr/internal/telemetry"
)

// Pair is one key-value element of a job's final output.
type Pair[K comparable, R any] struct {
	Key   K
	Value R
}

// Spec is a complete MapReduce job description.
//
// Type parameters: S is the split (task input) type, K/V the intermediate
// key and value types, R the final per-key result type.
type Spec[S any, K comparable, V, R any] struct {
	// Name labels the job in reports and profiles.
	Name string

	// Splits is the pre-partitioned input: one element per split, as
	// produced by the user's partitioning function. TaskSize splits are
	// grouped into one map task (§III: "the task size defines the
	// number of splits that correspond to a task").
	Splits []S

	// Map processes one split, emitting intermediate pairs.
	Map func(split S, emit func(K, V))

	// Combine folds two intermediate values for the same key. It must
	// be associative and is applied both inside containers and when
	// per-worker containers merge. Use Sum when the combine is
	// addition; containers fold it inline.
	Combine container.Combine[V]

	// Reduce finalizes one key's combined value. When nil, V must be
	// assignable to R via the identity (the engines require a non-nil
	// Reduce; use IdentityReduce for pass-through jobs).
	Reduce func(k K, acc V) R

	// NewContainer allocates one intermediate container. Each worker that
	// folds pairs, fused or combiner, gets a private instance.
	NewContainer container.Factory[K, V]

	// Less orders the final output by key when non-nil; otherwise the
	// output order is unspecified.
	Less func(a, b K) bool
}

// Validate reports the first structural problem with the spec.
func (s *Spec[S, K, V, R]) Validate() error {
	switch {
	case s.Map == nil:
		return errors.New("mr: spec has no Map function")
	case s.Combine == nil:
		return errors.New("mr: spec has no Combine function")
	case s.Reduce == nil:
		return errors.New("mr: spec has no Reduce function")
	case s.NewContainer == nil:
		return errors.New("mr: spec has no container factory")
	}
	return nil
}

// IdentityReduce returns a Reduce that passes the combined value through.
func IdentityReduce[K comparable, V any]() func(K, V) V {
	return func(_ K, v V) V { return v }
}

// Sum returns container.Sum, the additive combine a + b, which the
// containers fold inline.
func Sum[V container.Number]() container.Combine[V] {
	return container.Sum[V]()
}

// PhaseTimes records wall-clock duration per MapReduce phase, the
// measurement behind the paper's Fig. 1 run-time breakdown.
type PhaseTimes struct {
	Init       time.Duration
	Partition  time.Duration
	MapCombine time.Duration
	Reduce     time.Duration
	Merge      time.Duration
}

// Total returns the sum over all phases.
func (p PhaseTimes) Total() time.Duration {
	return p.Init + p.Partition + p.MapCombine + p.Reduce + p.Merge
}

// Fractions returns each phase as a fraction of the total (zeros when the
// total is zero).
func (p PhaseTimes) Fractions() (init, partition, mapCombine, reduce, merge float64) {
	t := p.Total().Seconds()
	if t == 0 {
		return
	}
	return p.Init.Seconds() / t, p.Partition.Seconds() / t,
		p.MapCombine.Seconds() / t, p.Reduce.Seconds() / t, p.Merge.Seconds() / t
}

// SecondsByPhase returns the profile as a name→seconds map, the shape the
// telemetry report carries.
func (p PhaseTimes) SecondsByPhase() map[string]float64 {
	return map[string]float64{
		"init":        p.Init.Seconds(),
		"partition":   p.Partition.Seconds(),
		"map-combine": p.MapCombine.Seconds(),
		"reduce":      p.Reduce.Seconds(),
		"merge":       p.Merge.Seconds(),
	}
}

// String renders the breakdown as percentages.
func (p PhaseTimes) String() string {
	i, pa, mc, r, m := p.Fractions()
	return fmt.Sprintf("init %.1f%% | partition %.1f%% | map-combine %.1f%% | reduce %.1f%% | merge %.1f%%",
		i*100, pa*100, mc*100, r*100, m*100)
}

// Result is a completed job's output plus its execution profile.
type Result[K comparable, R any] struct {
	// Pairs is the final output, ordered by Spec.Less when provided.
	Pairs []Pair[K, R]
	// Phases is the per-phase timing profile.
	Phases PhaseTimes
	// QueueStats aggregates SPSC queue counters (zero unless the run
	// shipped pairs through rings, which only RAMR does).
	QueueStats QueueStats
	// Steal aggregates map-phase task takes by distance class: every
	// take of a completed run is booked, and Phoenix++'s are all local.
	Steal StealStats
	// Telemetry is the structured run report (the ledger's per-worker
	// counters, their totals, throughput) when Config.Telemetry was set;
	// nil otherwise.
	Telemetry *telemetry.Report
}

// QueueStats aggregates the SPSC counters across all mapper queues of one
// RAMR run: the ledger's spsc.Stats, whose field comments give their
// semantics; in particular EmptyPolls counts polls of a truly empty ring
// while ShortPolls counts unforced polls that found fewer than a full batch
// buffered.
type QueueStats = spsc.Stats
