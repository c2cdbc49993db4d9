// Package core implements RAMR, the paper's contribution: a resource-aware
// MapReduce runtime that decouples the map and combine phases onto two
// separate thread pools and overlaps their execution in a pipeline
// (§III, Fig. 2).
//
// Mappers dequeue tasks from per-locality-group task queues and emit
// intermediate key-value pairs into a private fixed-size SPSC ring buffer
// instead of combining in place. Combiners run concurrently, pop *batches*
// of pairs from their assigned set of mapper queues, apply the combine
// function and accumulate into a private container. When the map phase
// ends, combiners drain any remainder and exit; reduce and merge then
// proceed exactly as in the Phoenix++ baseline.
//
// The pipeline only pays where the contention-aware pinning plan
// (pinning.go) puts a combiner on an SMT sibling of its mappers, so that a
// compute-bound map and a memory-bound combine share one core's L1/L2
// (Plan.ShipsPairs). Every other run ships nothing: it is one pool of
// identical fused workers, each mapping tasks and folding every pair it
// emits into its own container, with no ring built. The pool has a worker
// per mapper and combiner, but never more than its grant has CPUs
// (Plan.FusedPool, DESIGN.md §5.2). On a sibling plan the run is the
// paper's pipeline, and a full ring parks its mapper. The decision is made
// once, by Pool (pool.go); a stream session (internal/stream) asks the same
// Pool for a fused pool whatever its plan.
//
// The decoupling raises the parallelism degree and lets a memory-intensive
// combine overlap a compute-intensive map; the pinning plan keeps each
// combiner on a logical CPU adjacent to its mappers so the queue traffic
// stays in the closest shared cache.
//
// The Phoenix++ baseline (Talbot, Yoo, Kozyrakis, MapReduce '11) is the same
// fused pool under another dispatch policy: its unpinned workers, as many
// as a RAMR run's fused pool, take single tasks from one shared deque, with
// no locality groups and no stealing (RunPhoenixContext). Splits, tasks,
// containers, reduce and merge are one code path for both engines, so
// comparing them isolates what the resource-aware dispatch and placement
// add (DESIGN.md §5).
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ramr/internal/container"
	"ramr/internal/mr"
	"ramr/internal/obs"
	"ramr/internal/telemetry"
	"ramr/internal/topology"
)

// pair is one intermediate key-value element flowing through the queues.
// It is the container package's KV so a consumed queue batch can be handed
// to Container.UpdateBatch without repacking.
type pair[K comparable, V any] = container.KV[K, V]

// Run executes the job with the RAMR strategy under cfg. The thread
// budget is cfg.Mappers map workers plus cfg.NumCombiners() combine
// workers, fused into one pool no larger than cfg.CPUGrant unless the
// pinning plan ships pairs (Plan.ShipsPairs); reduce and merge run at the
// width of the pools.
func Run[S any, K comparable, V, R any](spec *mr.Spec[S, K, V, R], cfg mr.Config) (*mr.Result[K, R], error) {
	return RunContext(context.Background(), spec, cfg)
}

// RunContext is Run with cancellation: when ctx is cancelled, mappers stop
// taking tasks after their current one, the pipeline drains, and the
// context's error is returned. Cancellation latency is bounded by one map
// task plus the drain, never a hung queue.
func RunContext[S any, K comparable, V, R any](ctx context.Context, spec *mr.Spec[S, K, V, R], cfg mr.Config) (*mr.Result[K, R], error) {
	return run(ctx, spec, cfg, false)
}

// RunPhoenixContext executes the job with the Phoenix++ strategy: the same
// fused pool as a RAMR run that ships nothing, cfg.Mappers +
// cfg.NumCombiners() workers capped at the grant's CPUs, each fusing map
// and combine into a private container, unpinned, taking one task at a time
// from a single shared deque. Cancellation behaves as in RunContext.
func RunPhoenixContext[S any, K comparable, V, R any](ctx context.Context, spec *mr.Spec[S, K, V, R], cfg mr.Config) (*mr.Result[K, R], error) {
	return run(ctx, spec, cfg, true)
}

// run is the one batch body behind both engines; phoenix selects the
// Phoenix++ dispatch policy.
func run[S any, K comparable, V, R any](ctx context.Context, spec *mr.Spec[S, K, V, R], cfg mr.Config, phoenix bool) (_ *mr.Result[K, R], err error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Stream != nil {
		return nil, fmt.Errorf("core: Config.Stream is set; streaming runs go through internal/stream, not the batch engine")
	}
	// A context that is already dead must fail fast: no queue, worker or
	// sampler is ever created for a run that cannot make progress.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	engine, pin, steal := "ramr", cfg.Pin, cfg.Steal
	if phoenix {
		engine, pin, steal = "phoenix", mr.PinNone, mr.StealOff
	}
	res := &mr.Result[K, R]{}

	// --- Init: the pool and its containers (Fig. 2 top). ---
	// The pool makes the placement decision (DESIGN.md §5.2): one fused pool
	// sized to the grant, each worker folding what it maps into a container
	// of its own, unless the plan puts a combiner on an SMT sibling of its
	// mappers; then a RAMR run is the paper's pipeline, with a container per
	// combiner slot. Each container is written by its owner only and merged
	// once the pool is joined.
	t0 := time.Now()
	pool, err := NewPool[pair[K, V]](cfg, pin, engine, !phoenix)
	if err != nil {
		return nil, err
	}
	containers := make([]container.Container[K, V], pool.Owners)
	for j := range containers {
		containers[j] = spec.NewContainer()
	}
	res.Phases.Init = time.Since(t0)

	// --- Partition: tasks into per-locality-group deques. The worker →
	// group assignment is computed first because the deques are seeded
	// proportionally to the task-taking workers each group actually holds:
	// the mappers, or on a fused run every worker. Phoenix++ has one
	// group: its unpinned workers all draw from a single deque. ---
	t0 = time.Now()
	tasks := mr.Tasks(len(spec.Splits), cfg.TaskSize)
	groups := len(pool.Machine.LocalityGroups())
	if phoenix {
		groups = 1
	}
	workerGroup := workerGroups(pool.Machine, pool.CPUs, groups)
	workersIn := make([]int, groups)
	for _, g := range workerGroup {
		workersIn[g]++
	}
	tq := newTaskQueues(tasks, pool.Machine, workersIn, steal, !pool.Ship)
	res.Phases.Partition = time.Since(t0)

	// --- Map-combine: the decoupled, overlapped phase (Fig. 2). ---
	// User code (Map, Combine) may panic; the pool turns the first panic
	// into the run's error and shuts the run down cleanly. Every task-taking
	// worker takes task batches from its locality group's deque (stealing
	// when it runs dry) and maps them into its lane: fused into its own
	// container on a fused run, through its ring to the combiner slots
	// otherwise, which fold into theirs.
	t0 = time.Now()
	live := func() bool { return !pool.Aborted() && ctx.Err() == nil }
	pool.Start(ctx, func(w int, lane *Lane[pair[K, V]], tw *telemetry.Worker) {
		r, id := workerRole(w, cfg.Mappers)
		track := cfg.Trace.Worker(r.label, id)
		defer track.Publish()
		var emit func(K, V)
		if pool.Ship {
			emit = HookEmit(lane, func(k K, v V) { Emit(lane, pair[K, V]{K: k, V: v}) })
		} else {
			emit = Fuse(lane, &containers[w], spec.Combine)
		}
		for live() {
			t0, t1, cls, ok := tq.take(workerGroup[w])
			if !ok {
				break
			}
			tw.AddSteal(int(cls), uint64(t1-t0))
			stolen := cls != topology.StealLocal
			var endSteal func()
			if stolen {
				endSteal = track.Span("steal", obs.Int("tasks", t1-t0), obs.Str("class", cls.String()))
			}
			// An abort mid-batch leaves the rest of the batch untaken;
			// the outer loop then sees it too.
			for t := t0; t < t1 && live(); t++ {
				lo, hi := tq.tasks[t][0], tq.tasks[t][1]
				lane.BeginTask()
				end := track.Span("task", obs.Int("splits", hi-lo))
				for s := lo; s < hi; s++ {
					spec.Map(spec.Splits[s], emit)
				}
				lane.EndTask()
				end()
				if stolen {
					tw.AddRemoteExecuted()
				}
			}
			if stolen {
				endSteal()
			}
		}
	}, func(j int) func([]pair[K, V]) {
		c := containers[j]
		return func(seg []pair[K, V]) { c.UpdateBatch(seg, spec.Combine) }
	})
	// The sampler is the ledger's one optional reader. Its report is
	// built on the way out, so no return can leak its goroutine.
	if tel := cfg.Telemetry; tel != nil {
		defer func() {
			if rep := tel.EndRun(res.Phases.SecondsByPhase()); err == nil {
				res.Telemetry = rep
			}
		}()
	}
	pool.Wait()
	res.Phases.MapCombine = time.Since(t0)
	// The pre-reduce hook runs before the error checks: a cancellation
	// injected at the pre-reduce point must still be honored by the ctx
	// check below.
	cfg.Hooks.FirePreReduce()
	if err := pool.Err(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Every worker booked its last counts before its pool was joined.
	res.QueueStats, res.Steal, res.Help = Books(pool.Ledger.Totals())

	// --- Reduce: identical to the baseline from here on, over the
	// combiners' containers or, on a fused run, every worker's. ---
	t0 = time.Now()
	merged, err := mr.MergeContainers(containers, spec.Combine)
	if err != nil {
		return nil, err
	}
	pairs, err := mr.ReduceAll(merged, spec.Reduce, pool.Width)
	if err != nil {
		return nil, err
	}
	res.Phases.Reduce = time.Since(t0)

	// --- Merge: parallel sort, no wider than the pools. ---
	t0 = time.Now()
	if err := mr.SortPairsParallel(pairs, spec.Less, pool.Width); err != nil {
		return nil, err
	}
	res.Phases.Merge = time.Since(t0)

	res.Pairs = pairs
	return res, nil
}

// workerGroups assigns each worker of one pool (cpus is its row of the
// pinning plan) the locality-group index it draws tasks from: the group
// containing its pinned CPU, or round-robin for unpinned workers. Steering
// goes through Machine.GroupOf because a CPU's Socket field is an OS label
// that need not be dense — using it directly as a group index would
// silently alias through the modulo in taskQueues.next and send workers to
// remote groups' task queues.
func workerGroups(machine *topology.Machine, cpus []int, groups int) []int {
	mg := make([]int, len(cpus))
	for i := range mg {
		mg[i] = i % groups
		if cpu := cpus[i]; cpu >= 0 {
			if g, ok := machine.GroupOf(cpu); ok {
				mg[i] = g
			}
		}
	}
	return mg
}

// groupDeque is one locality group's task store: a contiguous window
// [head, tail) of task ids, seeded once and only ever shrunk. The owning
// group's mappers take chunks from the head; thieves take halves from the
// tail, so the two ends contend only when the window is nearly empty.
type groupDeque struct {
	mu         sync.Mutex
	head, tail int
}

// taskQueues implements the map phase's task steering: one chunked deque
// per locality group plus the machine's precomputed distance-ranked victim
// order. Mappers drain their own deque in guided-self-scheduling chunks
// (amortizing the lock the way the old design amortized its atomic, but
// over whole batches); when the local deque empties and stealing is on,
// they steal half the remaining window from the nearest non-empty victim.
// Stolen batches are executed privately by the thief and never
// re-enqueued, which is what makes the conservation invariant exact:
// tasks stolen == tasks executed remotely. Only input-split task ids ever
// move between groups — SPSC queue ownership never does.
type taskQueues struct {
	deques    []groupDeque
	victims   [][]int                 // probe order per thief group
	class     [][]topology.StealClass // steal class per (thief, victim)
	tasks     [][2]int
	workersIn []int // workers drawing from each group, for chunk sizing
	steal     bool
	single    bool // every take is one task (a fused pool's)
}

// newTaskQueues seeds one deque per locality group with a contiguous block
// of tasks proportional to the workers actually drawing from that group
// (largest-remainder rounding), not round-robin: under an asymmetric CPU
// grant a group holding one worker gets one worker's share of tasks, and a
// group holding none gets nothing — so the StealOff baseline terminates
// and the stealing path starts balanced instead of relying on steals to
// undo a skewed seed. single makes every take, local or stolen, one task.
func newTaskQueues(tasks [][2]int, machine *topology.Machine, workersIn []int, policy mr.StealPolicy, single bool) *taskQueues {
	groups := len(workersIn)
	tq := &taskQueues{
		deques:    make([]groupDeque, groups),
		victims:   machine.VictimOrder(),
		class:     make([][]topology.StealClass, groups),
		tasks:     tasks,
		workersIn: workersIn,
		steal:     policy != mr.StealOff,
		single:    single,
	}
	for g := 0; g < groups; g++ {
		tq.class[g] = make([]topology.StealClass, groups)
		for v := 0; v < groups; v++ {
			tq.class[g][v] = machine.GroupStealClass(g, v)
		}
	}
	shares := seedShares(len(tasks), workersIn)
	off := 0
	for g := range tq.deques {
		tq.deques[g].head = off
		off += shares[g]
		tq.deques[g].tail = off
	}
	return tq
}

// seedShares splits total tasks across groups proportionally to weights
// using largest-remainder rounding (ties to the lower group index), so the
// shares always sum to total and a zero-weight group gets zero.
func seedShares(total int, weights []int) []int {
	shares := make([]int, len(weights))
	sumW := 0
	for _, w := range weights {
		sumW += w
	}
	if sumW == 0 {
		// No worker draws from any group (impossible for a validated
		// config, which has >= 1 mapper); park everything in group 0.
		if len(shares) > 0 {
			shares[0] = total
		}
		return shares
	}
	assigned := 0
	rems := make([]int, len(weights))
	for g, w := range weights {
		shares[g] = total * w / sumW
		rems[g] = total * w % sumW
		assigned += shares[g]
	}
	for assigned < total {
		best := -1
		for g := range rems {
			if rems[g] > 0 && (best < 0 || rems[g] > rems[best]) {
				best = g
			}
		}
		if best < 0 {
			best = 0
		}
		shares[best]++
		rems[best] = 0
		assigned++
	}
	return shares
}

// chunkFor is the guided-self-scheduling chunk: half the remaining window
// divided evenly over the group's mappers, never below 1. Early takes move
// big batches (one lock acquisition for many tasks); the tail shrinks to
// single tasks so the last chunks still balance.
func chunkFor(rem, mappers int) int {
	if mappers < 1 {
		mappers = 1
	}
	n := rem / (2 * mappers)
	if n < 1 {
		n = 1
	}
	return n
}

// take returns the next batch of task ids [lo, hi) for a worker in group
// g, plus the steal class of the source deque. ok is false only at global
// exhaustion (or local exhaustion under StealOff). Deques never refill, so
// a single pass over the victim order is a sound termination check: a
// deque observed empty stays empty. A fused pool takes one task at a
// time: the skewed SYNTH run halves only with single takes (EXPERIMENTS.md,
// "Work-conserving pipeline"), for the price of one group lock per task.
func (tq *taskQueues) take(g int) (lo, hi int, class topology.StealClass, ok bool) {
	d := &tq.deques[g]
	d.mu.Lock()
	if rem := d.tail - d.head; rem > 0 {
		n := 1
		if !tq.single {
			n = chunkFor(rem, tq.workersIn[g])
		}
		lo, hi = d.head, d.head+n
		d.head += n
		d.mu.Unlock()
		return lo, hi, topology.StealLocal, true
	}
	d.mu.Unlock()
	if !tq.steal {
		return 0, 0, topology.StealLocal, false
	}
	for _, v := range tq.victims[g] {
		dv := &tq.deques[v]
		dv.mu.Lock()
		if rem := dv.tail - dv.head; rem > 0 {
			n := (rem + 1) / 2
			if tq.single {
				n = 1
			}
			lo, hi = dv.tail-n, dv.tail
			dv.tail -= n
			dv.mu.Unlock()
			return lo, hi, tq.class[g][v], true
		}
		dv.mu.Unlock()
	}
	return 0, 0, topology.StealLocal, false
}

// remaining returns the live task count across all deques (tests only).
func (tq *taskQueues) remaining() int {
	n := 0
	for g := range tq.deques {
		d := &tq.deques[g]
		d.mu.Lock()
		n += d.tail - d.head
		d.mu.Unlock()
	}
	return n
}
