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
// (Plan.FusedPool, DESIGN.md §5.2). A stream session (internal/stream)
// follows the same rule. On a sibling plan the run is the paper's
// pipeline, and a full ring parks its mapper.
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
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ramr/internal/container"
	"ramr/internal/mr"
	"ramr/internal/obs"
	"ramr/internal/spsc"
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
	mappers := cfg.Mappers
	combiners := cfg.NumCombiners()
	machine := cfg.ResolveMachine()
	if err := cfg.ValidateGrant(machine); err != nil {
		return nil, err
	}

	res := &mr.Result[K, R]{}
	// The run's books: every worker below registers a shard here, and the
	// result's statistics are read from it once the pools are joined.
	ledger := telemetry.NewLedger(engine)

	// --- Init: pinning plan, pools, queues, containers (Fig. 2 top). ---
	// The plan comes first: it decides whether the run ships pairs at all
	// (DESIGN.md §5.2). A plan with no combiner on an SMT sibling of its
	// mappers ships nothing: the run is one fused pool sized to its grant,
	// each worker folding what it maps into a container of its own, and no
	// ring, gate or consume loop is built. Otherwise it is the paper's
	// pipeline: a ring per mapper and a container per combiner slot, each
	// written by its worker only and merged once the pools are joined.
	// Reduce and merge run at the width of the pools.
	t0 := time.Now()
	plan := BuildPlanOn(machine, cfg.CPUGrant, mappers, combiners, pin)
	ship := plan.ShipsPairs(machine)
	cpus := plan.FusedPool(cfg.CPUGrant) // one per task-taking worker
	owners, width := len(cpus), len(cpus)
	var queues []*spsc.Queue[pair[K, V]]
	var gates []*spsc.Gate
	if ship {
		cpus, owners, width = plan.MapperCPU, combiners, mappers+combiners
		queues = make([]*spsc.Queue[pair[K, V]], mappers)
		for i := range queues {
			if queues[i], err = spsc.New[pair[K, V]](cfg.QueueCapacity, spsc.WaitSleep); err != nil {
				return nil, err
			}
		}
		// One gate per combiner: where it parks when none of its rings
		// has a batch for it.
		gates = make([]*spsc.Gate, combiners)
		for j := range gates {
			gates[j] = spsc.NewGate()
		}
	}
	// The sampler is the ledger's one optional reader. Its report is
	// built on the way out, so no return can leak its goroutine.
	if tel := cfg.Telemetry; tel != nil {
		tel.BeginRun(ledger)
		for i, q := range queues {
			tel.RegisterQueue(fmt.Sprintf("mapper-%d", i), q)
		}
		defer func() {
			if rep := tel.EndRun(res.Phases.SecondsByPhase()); err == nil {
				res.Telemetry = rep
			}
		}()
	}
	containers := make([]container.Container[K, V], owners)
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
	groups := len(machine.LocalityGroups())
	if phoenix {
		groups = 1
	}
	workerGroup := workerGroups(machine, cpus, groups)
	workersIn := make([]int, groups)
	for _, g := range workerGroup {
		workersIn[g]++
	}
	tq := newTaskQueues(tasks, machine, workersIn, steal, !ship)
	res.Phases.Partition = time.Since(t0)

	// --- Map-combine: the decoupled, overlapped phase (Fig. 2). ---
	// User code (Map, Combine) may panic; workers convert the first
	// panic into an error and shut the run down cleanly: a failed
	// mapper still closes its queue, if it has one, a failed combiner
	// keeps draining its queues (discarding) so blocked producers can
	// finish, and the abort flag stops further task dispatch.
	t0 = time.Now()
	var wg sync.WaitGroup
	var firstErr mr.FirstError
	var abort atomic.Bool
	// fail records a worker's error and raises the abort flag; for the
	// first worker to raise it, the OnAbort hook fires and every parked
	// combiner is woken to drain.
	fail := func(err error) {
		firstErr.Set(err)
		if abort.CompareAndSwap(false, true) {
			cfg.Hooks.FireOnAbort()
			for _, g := range gates {
				g.Wake()
			}
		}
	}
	live := func() bool { return !abort.Load() && ctx.Err() == nil }

	// The combiner pool, on the paper's pipeline only: the kernel's consume
	// loop on every slot, each folding into its private container. A batch
	// larger than the ring could never fill while a producer is blocked on
	// a full queue, deadlocking the pipeline, so it is clamped.
	if ship {
		StartCombiners(ctx, &wg, Combiners[pair[K, V]]{
			Engine: engine,
			Queues: queues,
			Gates:  gates,
			Order:  localityOrder(workerGroup),
			CPUs:   plan.CombinerCPU,
			Ledger: ledger,
			Trace:  cfg.Trace,
			Hooks:  cfg.Hooks,
			Batch:  min(cfg.BatchSize, queues[0].Cap()),
			Apply: func(j int) func([]pair[K, V]) {
				c := containers[j]
				return func(seg []pair[K, V]) { c.UpdateBatch(seg, spec.Combine) }
			},
			Abort: abort.Load,
			Fail:  fail,
		})
	}

	// The task-taking pool: the mappers, or on a fused run every worker of
	// the pool (combine workers after the mappers, as far as the grant
	// reaches), mapping as worker w to the Map hooks. Each takes task
	// batches from its locality group's deque (stealing when it runs dry)
	// and maps them into its lane: fused into its own container on a fused
	// run, through its ring to the combiners otherwise.
	for w, cpu := range cpus {
		r, id := workerRole(w, mappers)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var q *spsc.Queue[pair[K, V]]
			if ship {
				q = queues[w]
			}
			lane := NewLane(q, cfg.EmitBatch, w, cfg.Hooks)
			lane.Run(ctx, engine, mappers, cpu, ledger, fail, func(tw *telemetry.Worker) {
				track := cfg.Trace.Worker(r.label, id)
				defer track.Publish()
				var emit func(K, V)
				if ship {
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
					// An abort mid-batch leaves the rest of the batch
					// untaken; the outer loop then sees it too.
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
			})
		}()
	}

	wg.Wait()
	res.Phases.MapCombine = time.Since(t0)
	// The invariant observer and the pre-reduce hook run before the
	// error checks: a failed run must still report per-queue drain state,
	// and a cancellation injected at the pre-reduce point must still be
	// honored by the ctx check below.
	if hk := cfg.Hooks; hk != nil && hk.QueueObserver != nil {
		for i, q := range queues {
			hk.QueueObserver(i, q.Drained(), q.Snapshot())
		}
	}
	cfg.Hooks.FirePreReduce()
	if err := firstErr.Get(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Every worker booked its last counts before its pool was joined.
	res.QueueStats, res.Steal, res.Help = Books(ledger.Totals())

	// --- Reduce: identical to the baseline from here on, over the
	// combiners' containers or, on a fused run, every worker's. ---
	t0 = time.Now()
	merged, err := mr.MergeContainers(containers, spec.Combine)
	if err != nil {
		return nil, err
	}
	pairs, err := mr.ReduceAll(merged, spec.Reduce, width)
	if err != nil {
		return nil, err
	}
	res.Phases.Reduce = time.Since(t0)

	// --- Merge: parallel sort, no wider than the pools. ---
	t0 = time.Now()
	if err := mr.SortPairsParallel(pairs, spec.Less, width); err != nil {
		return nil, err
	}
	res.Phases.Merge = time.Since(t0)

	res.Pairs = pairs
	return res, nil
}

// localityOrder returns the queue (= mapper) indices sorted by locality
// group, stable within a group, so a contiguous split hands each combiner
// a dense group run.
func localityOrder(mapperGroup []int) []int {
	order := make([]int, len(mapperGroup))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		return mapperGroup[order[x]] < mapperGroup[order[y]]
	})
	return order
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
	single    bool // every take is one task (a conserving run's)
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
// deque observed empty stays empty. A conserving run takes one task at a
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
