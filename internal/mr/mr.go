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
	// Help counts the work a fused pool's workers did in place (all zero
	// when a RAMR run's CPU grant is too small for the rule to apply, see
	// HelpStats).
	Help HelpStats
	// Telemetry is the structured run report (the ledger's per-worker
	// counters, their totals, throughput) when Config.Telemetry was set;
	// nil otherwise.
	Telemetry *telemetry.Report
}

// HelpStats counts what work conservation moved in one RAMR run or stream
// session: map tasks the combine workers ran, and the pairs combine and map
// workers folded where they emitted them instead of shipping them. A stream
// session, and a run whose pinning plan puts no combiner on an SMT sibling
// of its mappers, is one pool of fused workers: it folds every pair in place
// and pushes none, and Tasks is the share its combine workers ran (none when
// its grant leaves room only for map workers). A run on a sibling plan never
// helps and folds none in place. With StealStats and QueueStats it
// closes the books exactly: a batch run's takes are the job's task count, a
// session's map-worker takes + Tasks is its split count, and pairs emitted −
// Pushes is Pairs().
type HelpStats struct {
	Tasks         uint64 `json:"tasks"`          // map tasks run by combine workers
	CombinerPairs uint64 `json:"combiner_pairs"` // pairs those tasks emitted, folded in place
	MapperPairs   uint64 `json:"mapper_pairs"`   // pairs mappers emitted, folded in place
}

// Pairs returns the pairs folded where they were emitted, by either pool:
// the ones that never crossed a ring.
func (h HelpStats) Pairs() uint64 { return h.CombinerPairs + h.MapperPairs }

// String renders the counters on one line for reports.
func (h HelpStats) String() string {
	return fmt.Sprintf("%d tasks mapped by combiners (%d pairs folded in place), %d pairs folded in place by mappers",
		h.Tasks, h.CombinerPairs, h.MapperPairs)
}

// QueueStats aggregates the SPSC counters across all mapper queues of one
// RAMR run. See spsc.Stats for field semantics; in particular EmptyPolls
// counts polls of a truly empty ring while ShortPolls counts unforced
// polls that found fewer than a full batch buffered.
type QueueStats struct {
	Pushes      uint64
	FailedPush  uint64 // wait rounds a mapper spent on a full ring
	Pops        uint64
	EmptyPolls  uint64
	ShortPolls  uint64
	BatchCalls  uint64
	SleepMicros uint64 // measured wall time producers spent parked on full rings
}

// Add folds one queue's counters into the aggregate.
func (q *QueueStats) Add(s spsc.Stats) {
	q.Pushes += s.Pushes
	q.FailedPush += s.FailedPush
	q.Pops += s.Pops
	q.EmptyPolls += s.EmptyPolls
	q.ShortPolls += s.ShortPolls
	q.BatchCalls += s.BatchCalls
	q.SleepMicros += s.SleepMicros
}

// FailedPushRate returns the fraction of push attempts whose first trial
// found the ring full: FailedPush / (Pushes + FailedPush). It is the
// backpressure signal behind the paper's sleep-on-failed-push policy
// (§III-A; here the producer parks); zero when no pushes happened.
func (q QueueStats) FailedPushRate() float64 {
	total := q.Pushes + q.FailedPush
	if total == 0 {
		return 0
	}
	return float64(q.FailedPush) / float64(total)
}

// ShortPollRate returns the fraction of consume polls that found fewer
// than a full batch buffered (unforced): ShortPolls over all polls
// (BatchCalls + EmptyPolls + ShortPolls). A high rate means combiners
// outpace mappers and the batch size may be too large; zero when no polls
// happened.
func (q QueueStats) ShortPollRate() float64 {
	total := q.BatchCalls + q.EmptyPolls + q.ShortPolls
	if total == 0 {
		return 0
	}
	return float64(q.ShortPolls) / float64(total)
}

// String renders all seven counters plus the derived rates on one line,
// the canonical formatting every report path shares.
func (q QueueStats) String() string {
	return fmt.Sprintf("%d pushed (%.1f%% failed), %d popped, %d batch calls, %d empty polls, %d short polls (%.1f%%), %dus slept",
		q.Pushes, q.FailedPushRate()*100, q.Pops, q.BatchCalls,
		q.EmptyPolls, q.ShortPolls, q.ShortPollRate()*100, q.SleepMicros)
}
