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
// once, by Pool (pool.go).
//
// A batch run and a stream session (internal/stream) are one driver
// (Driver): one task source, one per-task step and one finish. A batch run
// is a closed session: it seeds the source with every task, closes it
// before the pool starts and finishes one window. A session is always one
// fused pool; it appends each split it admits, in the pane of its tick, and
// finishes a window each time one seals.
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
	"sync/atomic"
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
// Phoenix++ dispatch policy. A batch run is a closed session: its source is
// seeded with every task and closed before the pool starts, and it finishes
// one window, pane 0.
func run[S any, K comparable, V, R any](ctx context.Context, spec *mr.Spec[S, K, V, R], cfg mr.Config, phoenix bool) (*mr.Result[K, R], error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Stream != nil {
		return nil, fmt.Errorf("core: Config.Stream is set; streaming runs go through internal/stream, not the batch engine")
	}
	// A context that is already dead must fail fast: no queue or worker is
	// ever created for a run that cannot make progress.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	engine := "ramr"
	if phoenix {
		engine, cfg.Pin, cfg.Steal = "phoenix", mr.PinNone, mr.StealOff
	}
	res := &mr.Result[K, R]{}

	// --- Partition: the splits into tasks of TaskSize. ---
	t0 := time.Now()
	ranges := mr.Tasks(len(spec.Splits), cfg.TaskSize)
	tasks := make([]Task[S], len(ranges))
	for i, r := range ranges {
		tasks[i].Splits = spec.Splits[r[0]:r[1]:r[1]]
	}
	res.Phases.Partition = time.Since(t0)

	// --- Init: the pool, its containers and its task source (Fig. 2 top),
	// seeded with every task and closed. The pool makes the placement
	// decision (DESIGN.md §5.2): one fused pool sized to the grant, each
	// worker folding what it maps into a container of its own, unless the
	// plan puts a combiner on an SMT sibling of its mappers; then a RAMR run
	// is the paper's pipeline, with a container per combiner slot. Phoenix++
	// has one locality group: its unpinned workers share one deque. ---
	t0 = time.Now()
	d, err := newDriver(spec, cfg, engine, !phoenix, phoenix, tasks)
	if err != nil {
		return nil, err
	}
	d.Close()
	res.Phases.Init = time.Since(t0)

	// --- Map-combine: the decoupled, overlapped phase (Fig. 2). ---
	// User code (Map, Combine) may panic; the pool turns the first panic
	// into the run's error and shuts the run down cleanly.
	t0 = time.Now()
	d.Start(ctx, cfg.Trace, nil)
	d.Wait()
	res.Phases.MapCombine = time.Since(t0)
	// The pre-reduce hook runs before the error checks: a cancellation
	// injected at the pre-reduce point must still be honored by the ctx
	// check below.
	cfg.Hooks.FirePreReduce()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Every worker booked its last counts before its pool was joined.
	res.QueueStats, res.Steal, res.Help = Books(d.Ledger.Totals())

	// --- Reduce and merge: the one finish, over pane 0 of the combiners'
	// containers or, on a fused run, every worker's. ---
	if res.Pairs, err = d.Finish(0, 1, &res.Phases); err != nil {
		return nil, err
	}
	if tel := cfg.Telemetry; tel != nil {
		res.Telemetry = tel.EndRun(res.Phases.SecondsByPhase())
	}
	return res, nil
}

// Driver is the one driver of batch runs and stream sessions: a pool, its
// task source (taskQueues: Append, Close), the per-task step and the finish.
type Driver[S any, K comparable, V, R any] struct {
	*Pool[pair[K, V]]
	*taskQueues[S]
	spec  *mr.Spec[S, K, V, R]
	group []int // each task-taking worker's locality group
	// panes maps each container owner's panes to its containers: a fused
	// worker's, with its fold into each, or on a sibling plan a combiner
	// slot's (pane 0). An owner is the only writer of its containers; mu
	// guards the maps, never a pair.
	mu    sync.Mutex
	panes []map[int64]owned[K, V]
}

// owned is one owner's container of one pane and, on a fused worker, the
// worker's emit into it (Fuse): built with the container, dropped with it.
type owned[K comparable, V any] struct {
	c    container.Container[K, V]
	emit func(K, V)
}

// pane returns (creating if needed) owner j's container for a pane and,
// if lane is set, the fused worker's emit into it. Only the owner creates
// its containers, so it may make one unlocked.
func (d *Driver[S, K, V, R]) pane(j int, pane int64, lane *Lane[pair[K, V]]) owned[K, V] {
	d.mu.Lock()
	o, ok := d.panes[j][pane]
	d.mu.Unlock()
	if !ok {
		o.c = d.spec.NewContainer()
		if lane != nil {
			o.emit = Fuse(lane, o.c, d.spec.Combine)
		}
		d.mu.Lock()
		d.panes[j][pane] = o
		d.mu.Unlock()
	}
	return o
}

// newDriver places the run's pool (NewPool; mayShip lets it ship), its
// container owners and its task source, seeded with tasks: each worker draws
// from the locality group of its CPU, or with oneGroup all from one deque.
func newDriver[S any, K comparable, V, R any](spec *mr.Spec[S, K, V, R], cfg mr.Config, engine string, mayShip, oneGroup bool, tasks []Task[S]) (*Driver[S, K, V, R], error) {
	pool, err := NewPool[pair[K, V]](cfg, engine, mayShip)
	if err != nil {
		return nil, err
	}
	d := &Driver[S, K, V, R]{Pool: pool, spec: spec, panes: make([]map[int64]owned[K, V], pool.Owners)}
	for j := range d.panes {
		d.panes[j] = make(map[int64]owned[K, V])
	}
	groups := len(pool.Machine.LocalityGroups())
	if oneGroup {
		groups = 1
	}
	d.group = workerGroups(pool.Machine, pool.CPUs, groups)
	workersIn := make([]int, groups)
	for _, g := range d.group {
		workersIn[g]++
	}
	d.taskQueues = newTaskQueues(tasks, pool.Machine, workersIn, cfg.Steal, !pool.Ship, pool.Dying())
	return d, nil
}

// NewSession builds a stream session's driver: always one fused pool (no
// leave to ship), over its machine's locality groups with cfg's steal
// policy, and an empty task source open to Append until Close.
func NewSession[S any, K comparable, V, R any](spec *mr.Spec[S, K, V, R], cfg mr.Config) (*Driver[S, K, V, R], error) {
	return newDriver(spec, cfg, "stream", false, false, nil)
}

// Start starts the pool with every task-taking worker running the one loop:
// take a batch of tasks from its group's deque (stealing when it runs dry,
// parking while the open source has none), run each through the step, until
// the source is closed and drained or the run dies (its abort, or ctx).
// trace records the task and steal spans, and done, if set, books each task
// once its pairs are folded. On a sibling plan, combiner slot j folds what
// it consumes into its own pane-0 container.
func (d *Driver[S, K, V, R]) Start(ctx context.Context, trace *obs.Recorder, done func(Task[S], uint64)) {
	live := func() bool { return !d.Aborted() && ctx.Err() == nil }
	d.Pool.Start(ctx, func(w int, lane *Lane[pair[K, V]], tw *telemetry.Worker) {
		r, id := workerRole(w, d.cfg.Mappers)
		track := trace.Worker(r.label, id)
		defer track.Publish()
		step := d.Step(w, lane, done)
		var tasks []Task[S]
		for live() {
			var cls topology.StealClass
			var ok bool
			if tasks, cls, ok = d.take(d.group[w], tasks); !ok {
				break
			}
			tw.AddSteal(int(cls), uint64(len(tasks)))
			stolen := cls != topology.StealLocal
			var endSteal func()
			if stolen {
				endSteal = track.Span("steal", obs.Int("tasks", len(tasks)), obs.Str("class", cls.String()))
			}
			// An abort mid-batch leaves the rest of the batch untaken;
			// the outer loop then sees it too.
			for _, t := range tasks {
				if !live() {
					break
				}
				end := track.Span("task", obs.Int("splits", len(t.Splits)))
				step(t)
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
		c := d.pane(j, 0, nil).c
		return func(seg []pair[K, V]) { c.UpdateBatch(seg, d.spec.Combine) }
	})
}

// Step returns worker w's step, built once per worker: on a fused pool
// every pair is folded as it is made, through the worker's emit into the
// container of the task's pane (Fuse) — a map lookup only when the pane
// changes; on a sibling plan every pair goes through the worker's ring.
// done, if set, books the task with what it emitted, after every pair is
// folded or published.
func (d *Driver[S, K, V, R]) Step(w int, lane *Lane[pair[K, V]], done func(Task[S], uint64)) func(Task[S]) {
	var emit func(K, V)
	var pane int64
	if d.Ship {
		emit = HookEmit(lane, func(k K, v V) { Emit(lane, pair[K, V]{K: k, V: v}) })
	}
	return func(t Task[S]) {
		if !d.Ship && (emit == nil || t.Pane != pane) {
			emit, pane = d.pane(w, t.Pane, lane).emit, t.Pane
		}
		lane.BeginTask()
		for _, s := range t.Splits {
			d.spec.Map(s, emit)
		}
		emitted := lane.EndTask()
		if done != nil {
			done(t, emitted)
		}
	}
}

// Finish merges every owner's containers of panes [n, n+k), reduces and
// sorts them at pool width: a batch run's one window (n = 0, k = 1) once its
// pool is joined, or a session's window n once its panes quiesce. Pane n is
// the window's lowest and no later window reads it, so each owner's pane-n
// container — created if absent — is the destination its panes n+1…n+k−1
// fold into, and the owners' destinations go to the tree merge: nothing here
// writes a container a later window reads. Pane n then leaves every owner,
// with the fused workers' folds into it.
// ph gets the merge-and-reduce and sort times. A panic in user code is
// returned as a *mr.PanicError.
func (d *Driver[S, K, V, R]) Finish(n, k int64, ph *mr.PhaseTimes) (pairs []mr.Pair[K, R], err error) {
	defer func() {
		if v := recover(); v != nil { // the fold below: the rest recovers its own
			pairs, err = nil, &mr.PanicError{Engine: "mr", Worker: "combine (merge)", Value: v}
		}
	}()
	t0 := time.Now()
	dsts := make([]container.Container[K, V], 0, len(d.panes))
	for _, m := range d.panes {
		d.mu.Lock()
		dst, srcs := m[n].c, make([]container.Container[K, V], 0, k-1)
		delete(m, n)
		for pane := n + 1; pane < n+k; pane++ {
			if o, ok := m[pane]; ok {
				srcs = append(srcs, o.c)
			}
		}
		d.mu.Unlock()
		if dst == nil && len(srcs) > 0 {
			dst = d.spec.NewContainer()
		}
		for _, c := range srcs {
			container.Merge(dst, c, d.spec.Combine)
		}
		if dst != nil {
			dsts = append(dsts, dst)
		}
	}
	merged, err := mr.MergeContainers(dsts, d.spec.Combine)
	if err != nil {
		return nil, err
	}
	if pairs, err = mr.ReduceAll(merged, d.spec.Reduce, d.Width); err != nil {
		return nil, err
	}
	ph.Reduce = time.Since(t0)
	t0 = time.Now()
	err = mr.SortPairsParallel(pairs, d.spec.Less, d.Width)
	ph.Merge = time.Since(t0)
	return pairs, err
}

// Task is what a worker takes: a run of consecutive splits in one pane,
// sub-sliced from the caller's splits, never copied. A batch task is
// mr.Tasks' range, in pane 0; a session task is one split of a chunk, in the
// pane of its tick.
type Task[S any] struct {
	Splits []S
	Pane   int64
}

// workerGroups assigns each worker of one pool (cpus is its row of the
// pinning plan) the locality-group index it draws tasks from: the group
// containing its pinned CPU, or round-robin for unpinned workers. Steering
// goes through Machine.GroupOf because a CPU's Socket field is an OS label
// that need not be dense — used directly as a group index it would send
// workers to remote groups' deques.
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

// groupDeque is one locality group's task store: a ring holding its live
// tasks at positions [head, tail), position i in buf[i%len(buf)]. A batch
// run seeds it with its share and never appends; a session's grows only when
// full, and admission bounds what it holds at MaxPending. The group's workers
// take from the head, thieves from the tail.
type groupDeque[S any] struct {
	mu         sync.Mutex
	buf        []Task[S]
	head, tail int
}

// taskQueues is a pool's one task source: one deque per locality group plus
// the machine's distance-ranked victim order. Workers drain their own deque
// in guided-self-scheduling chunks; when it empties and stealing is on,
// they steal half the nearest non-empty victim's tasks. Stolen tasks are
// executed by the thief and never re-enqueued, which is what makes the
// conservation invariant exact: tasks stolen == tasks executed remotely.
// The source takes appends until Close; a worker that finds nothing it may
// take parks until an append, the close or the run's abort.
type taskQueues[S any] struct {
	deques    []groupDeque[S]
	victims   [][]int                 // probe order per thief group; none under StealOff
	class     [][]topology.StealClass // steal class per (thief, victim)
	workersIn []int                   // workers drawing from each group, for chunk sizing
	deal      []int                   // appends go round this list: group g once per worker
	single    bool                    // every take is one task (a fused pool's)

	mu     sync.Mutex // orders appends, the close and parking
	dealt  int
	gen    atomic.Uint64 // bumped by every append and by the close
	closed atomic.Bool
	wake   chan struct{} // closed to wake the parked takers
	dying  <-chan struct{}
}

// newTaskQueues seeds one deque per locality group with a contiguous block
// of tasks proportional to the workers drawing from that group
// (largest-remainder rounding), and deals appended tasks in the same
// proportion: under an asymmetric grant a group holding one worker gets one
// worker's share, and a group holding none gets nothing — so the StealOff
// baseline terminates and stealing starts balanced. single makes every
// take one task; a parked taker gives up once dying is closed.
func newTaskQueues[S any](tasks []Task[S], machine *topology.Machine, workersIn []int, policy mr.StealPolicy, single bool, dying <-chan struct{}) *taskQueues[S] {
	groups := len(workersIn)
	tq := &taskQueues[S]{
		deques:    make([]groupDeque[S], groups),
		victims:   machine.VictimOrder(),
		class:     make([][]topology.StealClass, groups),
		workersIn: workersIn,
		single:    single,
		dying:     dying,
	}
	if policy == mr.StealOff {
		tq.victims = make([][]int, groups)
	}
	off := 0
	for g, n := range seedShares(len(tasks), workersIn) {
		tq.class[g] = make([]topology.StealClass, groups)
		for v := range groups {
			tq.class[g][v] = machine.GroupStealClass(g, v)
		}
		for range workersIn[g] {
			tq.deal = append(tq.deal, g)
		}
		tq.deques[g].buf, tq.deques[g].tail = tasks[off:off+n:off+n], n
		off += n
	}
	if tq.deal == nil {
		tq.deal = []int{0} // no worker draws from any group: as seedShares
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
	// The remainders sum to sumW*(total-assigned), each below sumW: while
	// tasks are left, some remainder is positive.
	for assigned < total {
		best := -1
		for g := range rems {
			if rems[g] > 0 && (best < 0 || rems[g] > rems[best]) {
				best = g
			}
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
func chunkFor(rem, mappers int) int { return max(1, rem/(2*max(1, mappers))) }

// Append deals one task per split, in pane, and wakes the parked takers.
func (tq *taskQueues[S]) Append(pane int64, splits []S) {
	tq.mu.Lock()
	defer tq.mu.Unlock()
	for i := range splits {
		d := &tq.deques[tq.deal[tq.dealt%len(tq.deal)]]
		tq.dealt++
		d.mu.Lock()
		if n := d.tail - d.head; n == len(d.buf) {
			buf := make([]Task[S], max(16, 2*n))
			for p := d.head; p < d.tail; p++ {
				buf[p-d.head] = d.buf[p%n]
			}
			d.buf, d.head, d.tail = buf, 0, n
		}
		d.buf[d.tail%len(d.buf)] = Task[S]{Splits: splits[i : i+1 : i+1], Pane: pane}
		d.tail++
		d.mu.Unlock()
	}
	tq.bump()
}

// Close ends the appends: the workers drain the deques and exit.
func (tq *taskQueues[S]) Close() {
	tq.mu.Lock()
	defer tq.mu.Unlock()
	tq.closed.Store(true)
	tq.bump()
}

// bump announces new tasks, or the close, to every parked taker; tq.mu held.
func (tq *taskQueues[S]) bump() {
	tq.gen.Add(1)
	if tq.wake != nil {
		close(tq.wake)
		tq.wake = nil
	}
}

// take moves the next batch of tasks for a worker in group g into into[:0],
// with the steal class of its deque. A fused pool takes one task at a time:
// the skewed SYNTH run halves only with single takes (EXPERIMENTS.md,
// "Work-conserving pipeline"), for the price of one group lock per task. ok
// is false once the source is closed and every deque the worker may take
// from (its own under StealOff) is empty, or if the run dies while the
// worker is parked.
func (tq *taskQueues[S]) take(g int, into []Task[S]) (_ []Task[S], class topology.StealClass, ok bool) {
	for {
		// Read before the scan: an append or the close after it moves gen.
		gen, closed := tq.gen.Load(), tq.closed.Load()
		if into, ok = tq.from(&tq.deques[g], into[:0], g, false); ok {
			return into, topology.StealLocal, true
		}
		for _, v := range tq.victims[g] {
			if into, ok = tq.from(&tq.deques[v], into, g, true); ok {
				return into, tq.class[g][v], true
			}
		}
		if closed {
			return into, topology.StealLocal, false
		}
		// Park until the first append or close after gen, or the run's death.
		tq.mu.Lock()
		if tq.gen.Load() != gen {
			tq.mu.Unlock()
			continue
		}
		if tq.wake == nil {
			tq.wake = make(chan struct{})
		}
		wake := tq.wake
		tq.mu.Unlock()
		select {
		case <-wake:
		case <-tq.dying:
			return into, topology.StealLocal, false
		}
	}
}

// from moves tasks out of d into into for a worker in group g: a guided
// chunk from the head of its own deque, or as a thief half the tail of a
// victim's — one task on a fused pool.
func (tq *taskQueues[S]) from(d *groupDeque[S], into []Task[S], g int, thief bool) ([]Task[S], bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	rem, n := d.tail-d.head, 1
	switch {
	case rem == 0:
		return into, false
	case tq.single:
	case thief:
		n = (rem + 1) / 2
	default:
		n = chunkFor(rem, tq.workersIn[g])
	}
	lo := d.head
	if thief {
		lo, d.tail = d.tail-n, d.tail-n
	} else {
		d.head += n
	}
	for p := lo; p < lo+n; p++ {
		into = append(into, d.buf[p%len(d.buf)])
		d.buf[p%len(d.buf)] = Task[S]{} // a drained slot holds no split
	}
	return into, true
}
