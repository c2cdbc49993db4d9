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
// The two pools are fixed but the work is not pinned to them: a combiner
// whose rings are empty takes a map task and folds what it emits in place,
// and a mapper whose ring is full folds its slab into a container of its
// own instead of waiting (DESIGN.md, "Work conservation"). Which of the two
// happens, and how often, is decided by the pipeline's own back-pressure.
//
// The decoupling raises the parallelism degree and lets a memory-intensive
// combine overlap a compute-intensive map; the contention-aware pinning
// plan (pinning.go) keeps each combiner on a logical CPU adjacent to its
// mappers so the queue traffic stays in the closest shared cache.
package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ramr/internal/container"
	"ramr/internal/mr"
	"ramr/internal/obs"
	"ramr/internal/spsc"
	"ramr/internal/telemetry"
	"ramr/internal/topology"
	"ramr/internal/tuner"
)

// pair is one intermediate key-value element flowing through the queues.
// It is the container package's KV so a consumed queue batch can be handed
// to Container.UpdateBatch without repacking.
type pair[K comparable, V any] = container.KV[K, V]

// Run executes the job with the RAMR strategy under cfg. The thread
// budget is cfg.Mappers map workers plus cfg.NumCombiners() combine
// workers; reduce and merge reuse the general-purpose (mapper) pool as in
// Fig. 2.
func Run[S any, K comparable, V, R any](spec *mr.Spec[S, K, V, R], cfg mr.Config) (*mr.Result[K, R], error) {
	return RunContext(context.Background(), spec, cfg)
}

// RunContext is Run with cancellation: when ctx is cancelled, mappers stop
// taking tasks after their current one, the pipeline drains, and the
// context's error is returned. Cancellation latency is bounded by one map
// task plus the drain, never a hung queue.
func RunContext[S any, K comparable, V, R any](ctx context.Context, spec *mr.Spec[S, K, V, R], cfg mr.Config) (*mr.Result[K, R], error) {
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
	mappers := cfg.Mappers
	combiners := cfg.NumCombiners()
	machine := cfg.ResolveMachine()
	if err := ValidateGrant(machine, cfg.CPUGrant); err != nil {
		return nil, err
	}

	// The combiner pool starts at combiners slots. With the tuner on it is
	// elastic up to maxCombiners: the plan and container set are sized for
	// that ceiling so combiners added mid-run have a pinned CPU and a
	// private container waiting. With it off nobody resizes the pool and
	// the two sizes coincide.
	tcfg := cfg.Tuner
	maxCombiners := combiners
	var tunerCfg tuner.Config
	if tcfg != nil {
		tunerCfg = ResolveTuner(*tcfg, mappers, cfg.QueueCapacity)
		// A CPU grant is a hard worker budget: the elastic pool may
		// never grow past what the grant can host alongside the mappers,
		// or a tuned job would spill onto CPUs granted to someone else.
		if g := len(cfg.CPUGrant); g > 0 {
			ceil := g - mappers
			if ceil < 1 {
				ceil = 1
			}
			if tunerCfg.MaxCombiners > ceil {
				tunerCfg.MaxCombiners = ceil
			}
			if tunerCfg.MinCombiners > tunerCfg.MaxCombiners {
				tunerCfg.MinCombiners = tunerCfg.MaxCombiners
			}
		}
		maxCombiners = tunerCfg.MaxCombiners
		if combiners > tunerCfg.MaxCombiners {
			combiners = tunerCfg.MaxCombiners
		}
		if combiners < tunerCfg.MinCombiners {
			combiners = tunerCfg.MinCombiners
		}
	}

	res := &mr.Result[K, R]{}

	// The telemetry layer is captured into a local once (like Hooks) so
	// the nil check never sits on a hot path; Stop is deferred so error
	// returns can never leak the sampler goroutine. The tuner needs the
	// sampler as its epoch clock and signal source, so it brings a
	// private telemetry when the user configured none (no report is
	// attached then).
	tel := cfg.Telemetry
	if tel == nil && tcfg != nil {
		tel = telemetry.New()
	}
	if tel != nil {
		tel.BeginRun("ramr")
		defer tel.Stop()
	}

	// --- Init: pools, queues, containers, pinning plan (Fig. 2 top). ---
	t0 := time.Now()
	queues := make([]*spsc.Queue[pair[K, V]], mappers)
	var mirrors []*telemetry.QueueMirror
	if tel != nil {
		mirrors = make([]*telemetry.QueueMirror, mappers)
	}
	for i := range queues {
		q, err := spsc.New[pair[K, V]](cfg.QueueCapacity, cfg.Wait)
		if err != nil {
			return nil, err
		}
		queues[i] = q
		if tel != nil {
			mirrors[i] = tel.RegisterQueue(fmt.Sprintf("mapper-%d", i), q)
		}
	}
	containers := make([]container.Container[K, V], maxCombiners)
	// One gate per combiner: where it parks when none of its rings has a
	// batch for it.
	gates := make([]*spsc.Gate, maxCombiners)
	for j := range containers {
		containers[j] = spec.NewContainer()
		gates[j] = spsc.NewGate()
	}
	// A batch larger than the ring could never fill while a producer is
	// blocked on a full queue, deadlocking the pipeline; clamp it.
	batch := cfg.BatchSize
	if c := queues[0].Cap(); batch > c {
		batch = c
	}
	plan := BuildPlanOn(machine, cfg.CPUGrant, mappers, maxCombiners, cfg.Pin)
	// Work conservation needs a CPU under every worker. On a grant too
	// small for that an idle worker is already lending its CPU to its
	// partner, and a worker that computes instead of parking takes cycles
	// from whoever else the host is running (EXPERIMENTS.md,
	// "Work-conserving pipeline": cold_job_s_p95 on serve_mixed).
	conserve := len(cfg.CPUGrant) == 0 || len(cfg.CPUGrant) >= mappers+maxCombiners
	// own[i] is mapper i's private container, created when its ring first
	// refuses a slab; lanes and helpers keep every lane's fold counts for
	// the run's books. Each entry is written by its worker only and read
	// after the pools are joined.
	own := make([]container.Container[K, V], mappers)
	lanes := make([]*Lane[pair[K, V]], mappers)
	helpers := make([]*Lane[pair[K, V]], maxCombiners)
	res.Phases.Init = time.Since(t0)

	// --- Partition: tasks into per-locality-group deques. The mapper →
	// group assignment is computed first because the deques are seeded
	// proportionally to the mappers each group actually holds. ---
	t0 = time.Now()
	tasks := mr.Tasks(len(spec.Splits), cfg.TaskSize)
	groups := machine.LocalityGroups()
	mapperGroup := workerGroups(machine, plan.MapperCPU, len(groups))
	combinerGroup := workerGroups(machine, plan.CombinerCPU, len(groups))
	mappersIn := make([]int, len(groups))
	for _, g := range mapperGroup {
		mappersIn[g]++
	}
	tq := newTaskQueues(tasks, machine, mappersIn, cfg.Steal)
	if conserve {
		for _, g := range combinerGroup {
			tq.helpersIn[g]++
		}
	}
	res.Phases.Partition = time.Since(t0)

	// Per-mapper steal stats fold into the shared aggregate at worker
	// exit (under stealMu), so the hot path only touches mapper-locals.
	var stealMu sync.Mutex
	var stealAgg mr.StealStats

	// --- Map-combine: the decoupled, overlapped phase (Fig. 2). ---
	// User code (Map, Combine) may panic; workers convert the first
	// panic into an error and shut the pipeline down cleanly: a failed
	// mapper still closes its queue, a failed combiner keeps draining
	// its queues (discarding) so blocked producers can finish, and the
	// abort flag stops further task dispatch.
	t0 = time.Now()
	var mapWG, combWG sync.WaitGroup
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

	// One map task, on whichever worker took it: a mapper on its lane, or
	// a combiner slot on its ring-less one.
	live := func() bool { return !abort.Load() && ctx.Err() == nil }
	emitInto := func(lane *Lane[pair[K, V]]) func(K, V) {
		return HookEmit(lane, func(k K, v V) { Emit(lane, pair[K, V]{K: k, V: v}) })
	}
	runTask := func(lane *Lane[pair[K, V]], track *obs.Track, t int, emit func(K, V)) {
		lo, hi := tq.tasks[t][0], tq.tasks[t][1]
		lane.BeginTask()
		end := track.Span("task", obs.Int("splits", hi-lo))
		for s := lo; s < hi; s++ {
			spec.Map(spec.Splits[s], emit)
		}
		lane.EndTask()
		end()
	}

	// The combiner pool: the kernel's consume loop on every slot, each
	// folding into its private container. The consume batch is the one
	// knob read on that loop, so it travels through an atomic the tuner
	// stores and each round loads. A slot with nothing to consume helps:
	// one task at a time from its own group's deque (further afield only
	// as the steal policy allows), so it is back at its rings within a
	// task.
	var batchNow atomic.Int64
	batchNow.Store(int64(batch))
	var help func(int, *Lane[pair[K, V]], *obs.Track) func() bool
	if conserve {
		help = func(j int, lane *Lane[pair[K, V]], track *obs.Track) func() bool {
			helpers[j] = lane
			emit := emitInto(lane)
			return func() bool {
				if !live() {
					return false
				}
				t, _, _, ok := tq.take(combinerGroup[j], true)
				if ok {
					runTask(lane, track, t, emit)
				}
				return ok
			}
		}
	}
	resize := StartCombiners(ctx, &combWG, Combiners[pair[K, V]]{
		Engine:  "ramr",
		Queues:  queues,
		Gates:   gates,
		Mirrors: mirrors,
		Order:   localityOrder(mapperGroup),
		Active:  combiners,
		CPUs:    plan.CombinerCPU,
		Tel:     tel,
		Trace:   cfg.Trace,
		Hooks:   cfg.Hooks,
		Batch:   func() int { return int(batchNow.Load()) },
		Apply: func(j int) func([]pair[K, V]) {
			c := containers[j]
			return func(seg []pair[K, V]) { c.UpdateBatch(seg, spec.Combine) }
		},
		Abort: abort.Load,
		Fail:  fail,
		Help:  help,
	})
	var driver *TunerDriver
	if tcfg != nil {
		start := tuner.Settings{Combiners: combiners, Batch: batch}
		driver = StartTuner(tunerCfg, start, tel, cfg.Trace, queues, func(s tuner.Settings) {
			resize(s.Combiners)
			batchNow.Store(int64(s.Batch))
		})
	}

	// The mapper pool: each worker takes task batches from its locality
	// group's deque (stealing when it runs dry) and maps them into its
	// lane. A slab the ring has no room for is folded into own[i] rather
	// than waited on: the combiners are behind, and the mapper's CPU is the
	// one that is free.
	for i := 0; i < mappers; i++ {
		mapWG.Add(1)
		go func(i int) {
			defer mapWG.Done()
			var st mr.StealStats
			defer func() {
				stealMu.Lock()
				stealAgg.Add(st)
				stealMu.Unlock()
			}()
			lane := NewLane(queues[i], cfg.EmitBatch, i, cfg.Hooks)
			lanes[i] = lane
			if conserve {
				lane.Fold = func(seg []pair[K, V]) {
					if own[i] == nil {
						own[i] = spec.NewContainer()
					}
					own[i].UpdateBatch(seg, spec.Combine)
				}
			}
			lane.Run(ctx, "ramr", plan.MapperCPU[i], tel, fail, func(tw *telemetry.Worker) {
				track := cfg.Trace.Worker("mapper", i)
				defer track.Publish()
				emit := emitInto(lane)
				for live() {
					t0, t1, cls, ok := tq.take(mapperGroup[i], false)
					if !ok {
						break
					}
					st.AddClass(cls, uint64(t1-t0))
					tw.AddSteal(int(cls), t1-t0)
					stolen := cls != topology.StealLocal
					var endSteal func()
					if stolen {
						endSteal = track.Span("steal", obs.Int("tasks", t1-t0), obs.Str("class", cls.String()))
					}
					// An abort mid-batch leaves the rest of the batch
					// untaken; the outer loop then sees it too.
					for t := t0; t < t1 && live(); t++ {
						runTask(lane, track, t, emit)
						if stolen {
							st.RemoteExecuted++
							tw.AddRemoteExecuted(1)
						}
					}
					if stolen {
						endSteal()
					}
				}
			})
		}(i)
	}

	mapWG.Wait()
	combWG.Wait()
	res.Phases.MapCombine = time.Since(t0)
	// Every mapper's fold happened-before mapWG.Wait returned, so the
	// aggregate is stable here without further synchronization.
	stealMu.Lock()
	res.Steal = stealAgg
	stealMu.Unlock()
	if driver != nil {
		// Fence the driver before reading its report (and before any
		// error return): no controller step can be in flight after stop.
		driver.Stop()
		res.TunerReport = driver.Report()
	}
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

	for _, q := range queues {
		res.QueueStats.Add(q.Snapshot())
	}
	for _, l := range lanes {
		_, folded := l.Stats()
		res.Help.MapperPairs += folded
	}
	for _, l := range helpers {
		if l != nil {
			tasks, folded := l.Stats()
			res.Help.Tasks += tasks
			res.Help.CombinerPairs += folded
		}
	}

	// --- Reduce: identical to the baseline from here on, over the
	// combiners' containers and whichever mappers grew one. ---
	t0 = time.Now()
	for _, c := range own {
		if c != nil {
			containers = append(containers, c)
		}
	}
	merged, err := mr.MergeContainers(containers, spec.Combine)
	if err != nil {
		return nil, err
	}
	pairs, err := mr.ReduceAll(merged, spec.Reduce, mappers+combiners)
	if err != nil {
		return nil, err
	}
	res.Phases.Reduce = time.Since(t0)

	// --- Merge: parallel sort over the general-purpose pool. ---
	t0 = time.Now()
	mr.SortPairsParallel(pairs, spec.Less, mappers+combiners)
	res.Phases.Merge = time.Since(t0)

	res.Pairs = pairs
	if tel != nil {
		rep := tel.EndRun(res.Phases.SecondsByPhase())
		// A tuner-private telemetry is a clock, not a report the user
		// asked for; attach only when the user configured one.
		if cfg.Telemetry != nil {
			res.Telemetry = rep
		}
	}
	return res, nil
}

// ValidateGrant checks a CPU grant against the resolved machine: every id
// must name an existing logical CPU. Uniqueness and sign were already
// enforced by Config.Validate; this is the machine-dependent half, checked
// once per run (or stream session) before any resource is allocated.
func ValidateGrant(machine *topology.Machine, grant []int) error {
	n := machine.NumCPUs()
	for _, cpu := range grant {
		if cpu >= n {
			return fmt.Errorf("core: CPUGrant cpu %d out of range for %s (%d logical CPUs)", cpu, machine.Name, n)
		}
	}
	return nil
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
	mappersIn []int // mappers drawing from each group, for chunk sizing
	helpersIn []int // combiner slots that may draw from each group too
	steal     bool
}

// newTaskQueues seeds one deque per locality group with a contiguous block
// of tasks proportional to the mappers actually drawing from that group
// (largest-remainder rounding), not round-robin: under an asymmetric CPU
// grant a group holding one mapper gets one mapper's share of tasks, and a
// group holding none gets nothing — so the StealOff baseline terminates
// and the stealing path starts balanced instead of relying on steals to
// undo a skewed seed.
func newTaskQueues(tasks [][2]int, machine *topology.Machine, mappersIn []int, policy mr.StealPolicy) *taskQueues {
	groups := len(mappersIn)
	tq := &taskQueues{
		deques:    make([]groupDeque, groups),
		victims:   machine.VictimOrder(),
		class:     make([][]topology.StealClass, groups),
		tasks:     tasks,
		mappersIn: mappersIn,
		helpersIn: make([]int, groups),
		steal:     policy != mr.StealOff,
	}
	for g := 0; g < groups; g++ {
		tq.class[g] = make([]topology.StealClass, groups)
		for v := 0; v < groups; v++ {
			tq.class[g][v] = machine.GroupStealClass(g, v)
		}
	}
	shares := seedShares(len(tasks), mappersIn)
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
		// No mapper draws from any group (impossible for a validated
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
// g, plus the steal class of the source deque; single makes the batch one
// task, which is all a helping combiner slot takes, so that it is back at
// its rings within a task. ok is false only at global exhaustion (or local
// exhaustion under StealOff). Deques never refill, so a single pass over
// the victim order is a sound termination check: a deque observed empty
// stays empty.
//
// A deque that slots help drain is drained one task at a time by its
// mappers too. A guided chunk is private once taken, and its size assumes
// the group's mappers are all there is: with a slot mapping beside it the
// mapper would walk off with half the deque — the heavy half, when splits
// are sorted by size — and leave the slot the crumbs (EXPERIMENTS.md,
// "Work-conserving pipeline": the skewed SYNTH run halves only with single
// takes). The lock this gives up amortising is one group's, taken once per
// task of tens of microseconds.
func (tq *taskQueues) take(g int, single bool) (lo, hi int, class topology.StealClass, ok bool) {
	d := &tq.deques[g]
	d.mu.Lock()
	if rem := d.tail - d.head; rem > 0 {
		n := 1
		if !single && tq.helpersIn[g] == 0 {
			n = chunkFor(rem, tq.mappersIn[g])
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
			if single {
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
