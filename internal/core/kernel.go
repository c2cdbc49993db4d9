// The pipeline kernel: the two hot loops of the paper's decoupled
// map → SPSC ring → batched-combine pipeline (§III, Fig. 2), written once.
// A Lane is a mapper's producer side (emit slab → ring); combine is a
// combiner slot's consume loop (ring → apply, park when idle,
// drain-and-discard on abort). Both are generic over the ring element E and
// never look inside one. The two work-conserving rules live here too, each
// behind one optional func of its driver: a slot about to park asks for
// other work first (Combiners.Help), and a lane whose ring will not take a
// slab folds it on the spot (Lane.Fold). The batch engine (engine.go), its
// tuned variant (elastic.go) and the resident stream session
// (internal/stream) are drivers: they decide where tasks come from and where
// folded batches go, and run everything else through here.
package core

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"

	"ramr/internal/affinity"
	"ramr/internal/mr"
	"ramr/internal/obs"
	"ramr/internal/spsc"
	"ramr/internal/telemetry"
)

// role names a worker pool: label is the pprof/telemetry role, name the
// prefix of PanicError.Worker.
type role struct{ label, name string }

var (
	mapperRole   = role{"mapper", "map worker"}
	combinerRole = role{"combiner", "combine worker"}
)

// runWorker is the prologue every pipeline goroutine runs under. It labels
// the goroutine (engine/role/worker, so CPU profiles segment mapper time
// from combiner time), registers its telemetry shard, pins it to cpu
// (cpu < 0 leaves it to the OS) and runs body; body runs inside the
// labelled closure so the recover stays in the panicking frame chain. A
// panic in body — user code or an injected fault — is handed to recovered
// as the run's typed error after the goroutine has been unpinned; the
// shard is marked done last, whatever happened.
func runWorker(ctx context.Context, engine string, r role, id, cpu int, tel *telemetry.Telemetry, body func(*telemetry.Worker), recovered func(*mr.PanicError)) {
	labels := pprof.Labels("engine", engine, "role", r.label, "worker", strconv.Itoa(id))
	pprof.Do(ctx, labels, func(context.Context) {
		var tw *telemetry.Worker
		if tel != nil {
			tw = tel.RegisterWorker(r.label, id)
		}
		defer tw.SetState(telemetry.StateDone)
		defer func() {
			if v := recover(); v != nil {
				recovered(&mr.PanicError{Engine: engine, Worker: fmt.Sprintf("%s %d", r.name, id), Value: v})
			}
		}()
		if cpu >= 0 && affinity.Supported() {
			unpin, _ := affinity.PinSelf(cpu)
			defer unpin()
		}
		body(tw)
	})
}

// Lane is one mapper's producer side: its ring, the emit slab in front of
// it and the worker's telemetry stores. Emitted elements are staged in the
// slab and published as blocks, so the ring's shared tail index (and the
// cross-core traffic on its cache line) is touched once per slab instead
// of once per element; the slab flushes when full, at every task boundary
// and before the ring closes. A slab of one (EmitBatch 1) is the unbatched
// ablation baseline. A Lane belongs to the goroutine inside Run.
//
// A lane with a Fold never waits on its ring: a slab the ring has no room
// for is folded where it is (the driver decides into what), which is what a
// back-pressured mapper does instead of parking. A lane with a Fold and no
// ring at all is a combiner slot's own: the slot maps on it while its rings
// are empty, and every slab goes to the Fold (see combine).
type Lane[E any] struct {
	// Fold, if the driver sets it before Run, takes the slabs the ring
	// refuses; nil leaves a full ring to park the producer.
	Fold func([]E)

	q        *spsc.Queue[E] // nil on a combiner slot's lane
	slab     []E
	id       int
	emitHook func(int) // Hooks.MapEmit
	taskHook func(int) // Hooks.MapTask
	tw       *telemetry.Worker
	done     uint64 // elements pushed or folded up to the last task boundary
	folded   uint64 // elements that went to fold
	tasks    uint64
}

// NewLane builds mapper id's lane over q. The slab is clamped to the ring:
// PushBatch copies oversized blocks in chunks anyway, but a slab beyond the
// ring capacity only adds latency before the combiner sees anything, and
// could never be offered whole.
func NewLane[E any](q *spsc.Queue[E], emitBatch, id int, hooks *mr.Hooks) *Lane[E] {
	if emitBatch <= 0 {
		emitBatch = mr.DefaultEmitBatch
	}
	if c := q.Cap(); emitBatch > c {
		emitBatch = c
	}
	return newLane(q, emitBatch, id, hooks)
}

func newLane[E any](q *spsc.Queue[E], slab, id int, hooks *mr.Hooks) *Lane[E] {
	l := &Lane[E]{q: q, slab: make([]E, 0, slab), id: id}
	if hooks != nil {
		l.emitHook, l.taskHook = hooks.MapEmit, hooks.MapTask
	}
	return l
}

// Stats returns how many tasks ran on l and how many of their elements
// were folded in place. The lane's goroutine must have finished.
func (l *Lane[E]) Stats() (tasks, folded uint64) { return l.tasks, l.folded }

// Run executes body as this lane's mapper goroutine under the worker
// prologue and always ends by closing the ring — the combiner must be
// notified however the mapper ends, and a push after Close panics. A
// panicked Map leaves a half-built slab whose elements must never reach
// Combine (the run is doomed), so after a panic the error goes to fail
// first and the exit flush is skipped.
func (l *Lane[E]) Run(ctx context.Context, engine string, cpu int, tel *telemetry.Telemetry, fail func(error), body func(*telemetry.Worker)) {
	exit := func(failed bool) {
		if !failed {
			l.flush()
		}
		l.tw.StoreProducer(l.q.ProducerStats())
		l.q.Close()
	}
	runWorker(ctx, engine, mapperRole, l.id, cpu, tel, func(tw *telemetry.Worker) {
		l.tw = tw
		body(tw)
		exit(false)
	}, func(pe *mr.PanicError) {
		fail(pe)
		exit(true)
	})
}

// Emit stages one element on l; a full slab is published to the ring.
// This is the per-pair path: user emit closure → append → len==cap test.
// It is a function, not a method, and flush is kept out of line, because
// that is what lets the compiler (go1.24: generic functions inline into a
// generic caller, generic methods never do; budget 80, this costs 78)
// inline it into the driver's emit closure — as a call it costs HG 15 %
// (EXPERIMENTS.md, "One kernel").
func Emit[E any](l *Lane[E], e E) {
	l.slab = append(l.slab, e)
	if len(l.slab) == cap(l.slab) {
		l.flush()
	}
}

// flush publishes the slab: to the ring, waiting for room if it must —
// unless the lane has a Fold, which then takes what the ring refused (and
// everything, on a ring-less lane). A Fold that panics leaves the slab
// staged, and a staged slab is never flushed after a panic.
//
//go:noinline
func (l *Lane[E]) flush() {
	n := len(l.slab)
	switch {
	case n == 0:
		return
	case l.Fold == nil:
		l.q.PushBatch(l.slab)
	case l.q == nil || !l.q.Offer(l.slab):
		l.Fold(l.slab)
		l.folded += uint64(n)
		l.tw.AddCombined(n)
		l.tw.AddFolded(n)
	}
	l.slab = l.slab[:0]
}

// HookEmit puts the MapEmit hook in front of a driver's emit closure — the
// hook runs before each pair is staged — and returns emit itself when no
// hook is set, so an uninstrumented run pays nothing per pair for it.
func HookEmit[E, K, V any](l *Lane[E], emit func(K, V)) func(K, V) {
	hook := l.emitHook
	if hook == nil {
		return emit
	}
	return func(k K, v V) {
		hook(l.id)
		emit(k, v)
	}
}

// BeginTask marks the start of one map task. A combiner slot's lane leaves
// the worker state to the slot, which is helping, not working.
func (l *Lane[E]) BeginTask() {
	if l.q != nil {
		l.tw.SetState(telemetry.StateWorking)
	}
	if l.taskHook != nil {
		l.taskHook(l.id)
	}
}

// EndTask publishes what the task emitted: the slab is flushed, so every
// element is visible to the consumer (or folded) when it returns, and the
// worker's task, emitted and producer-side ring counters are stored. It
// returns the task's element count, taken from the ring's own push counter
// and the per-slab fold count so the per-pair path carries no counter.
func (l *Lane[E]) EndTask() (emitted uint64) {
	l.flush()
	done := l.folded
	if l.q != nil {
		pushes, failedPush, slept := l.q.ProducerStats()
		l.tw.StoreProducer(pushes, failedPush, slept)
		done += pushes
	} else {
		l.tw.AddHelped(1)
	}
	emitted, l.done = done-l.done, done
	l.tasks++
	l.tw.AddTasks(1)
	l.tw.AddEmitted(int(emitted))
	return emitted
}

// Combiners describes one combiner pool over a set of rings: len(Gates)
// slots, the first Active of which share the rings (see elasticPool). The
// funcs are the whole interface between the consume loop and its driver.
type Combiners[E any] struct {
	Engine  string // pprof label and PanicError.Engine
	Queues  []*spsc.Queue[E]
	Gates   []*spsc.Gate             // one per slot; the driver's abort path wakes them
	Mirrors []*telemetry.QueueMirror // per ring; nil when telemetry is off
	Order   []int                    // ring indices in the order the slots split them
	Active  int
	CPUs    []int // per slot, -1 = unpinned
	Tel     *telemetry.Telemetry
	Trace   *obs.Recorder
	Hooks   *mr.Hooks

	// Batch is the consume batch size, read once per polling round (the
	// tuner moves it mid-run); it must stay within [1, ring capacity] — a
	// batch larger than the ring could never fill while a producer is
	// blocked on a full queue, deadlocking the pipeline.
	Batch func() int
	// Apply returns slot's fold: it receives each consumed ring segment
	// and owns where the elements go.
	Apply func(slot int) func([]E)
	// Abort reports whether the run is doomed; Fail records an error and
	// dooms it (and must wake Gates).
	Abort func() bool
	Fail  func(error)
	// Progress, if set, runs after every round that consumed something.
	Progress func()
	// Help, if set, is asked once per slot for the slot's answer to "my
	// rings hold nothing for me": a func that runs one unit of other work
	// on the slot's goroutine and reports whether it found any. A slot that
	// would park calls it first and parks only on false, which is final —
	// the slot does not ask again. What help runs is the slot's own: lane
	// is a ring-less Lane whose slabs go to the slot's Apply fold and whose
	// tasks and pairs are counted on the slot's telemetry shard, mapping as
	// worker len(Queues)+slot to the Map hooks; track is the slot's trace
	// lane. A slot with an empty assignment (an inactive one) never asks.
	Help func(slot int, lane *Lane[E], track *obs.Track) func() bool
}

// StartCombiners spawns one goroutine per slot, accounted on wg, and
// returns the pool's resize control; a caller that drops it has a pool of
// Active slots that nobody resizes. The slots exit once every ring is
// closed and drained.
func StartCombiners[E any](ctx context.Context, wg *sync.WaitGroup, c Combiners[E]) (resize func(active int)) {
	if c.Mirrors == nil {
		c.Mirrors = make([]*telemetry.QueueMirror, len(c.Queues)) // nil mirrors drop their stores
	}
	// Instrumented runs (Hooks set) also check the one-consumer-per-ring
	// invariant the pool lock must make impossible to violate.
	pool := newElasticPool(c.Queues, c.Gates, c.Order, c.Active, c.Hooks != nil, func(queue, holder, claimant int) {
		c.Fail(fmt.Errorf("core: single-consumer invariant violated: queue %d consumed by combiner %d while owned by %d", queue, claimant, holder))
	})
	for j := range c.Gates {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runWorker(ctx, c.Engine, combinerRole, j, c.CPUs[j], c.Tel, func(tw *telemetry.Worker) {
				combine(&c, pool, j, tw)
			}, func(pe *mr.PanicError) {
				// A failed combiner keeps draining (and discarding) so
				// producers blocked on full rings can run to completion.
				c.Fail(pe)
				pool.drainAbort(j, c.Batch())
			})
		}()
	}
	return pool.Resize
}

// combine is one combiner slot's life: consume rounds over the rings the
// pool currently assigns it, under the pool's read lock; when a round found
// nothing (an empty assignment never does), help if the driver has other
// work and park on the slot's gate if not; retire drained rings; and once
// the run is doomed stop feeding user code and discard-drain instead, so
// producers blocked on full rings unwedge without burning user-code cycles.
// Helping happens outside the lock and outside any ring's single-consumer
// token: a panic in it unwinds straight to the slot's recovery.
func combine[E any](c *Combiners[E], pool *elasticPool[E], j int, tw *telemetry.Worker) {
	track := c.Trace.Worker("combiner", j)
	defer track.Publish()
	var batchHook, drainHook func(int)
	if hk := c.Hooks; hk != nil {
		batchHook, drainHook = hk.CombineBatch, hk.CombineDrain
	}
	apply := c.Apply(j)
	fold := func(seg []E) {
		if batchHook != nil {
			batchHook(j)
		}
		tw.AddCombined(len(seg))
		tw.AddBatches(1)
		apply(seg)
	}
	// state stores only on transitions so a polling round costs no atomic
	// traffic while the state is stable.
	curState := telemetry.StateIdle
	setState := func(s telemetry.State) {
		if s != curState {
			curState = s
			tw.SetState(s)
		}
	}
	draining := false
	var help func() bool
	if c.Help != nil {
		// The helper's slab is one consume batch: the block size the slot's
		// container already sees from its rings.
		lane := newLane[E](nil, c.Batch(), len(c.Queues)+j, c.Hooks)
		lane.Fold, lane.tw = apply, tw
		help = c.Help(j, lane, track)
	}

	// round runs one polling pass over the slot's assignment while holding
	// the read lock (the ownership critical section). The deferred unlock
	// keeps a user-code panic from wedging the pool: the recovery takes
	// the write lock to freeze. A fold that panics also gives back the
	// ring's single-consumer token before the lock goes — otherwise a
	// resize landing before the freeze hands the ring to a slot that finds
	// the token taken, and that false violation can beat the panic to the
	// run's error. It leaves in waitOn the rings an idle slot parks on and
	// in b the batch it polled with, and returns the assignment generation
	// that list is valid for.
	var waitOn []*spsc.Queue[E]
	var b int
	round := func() (consumed int, toRetire []int, gen uint64, finished bool) {
		pool.mu.RLock()
		held := -1
		defer func() {
			if held >= 0 {
				pool.release(held)
			}
			pool.mu.RUnlock()
		}()
		gen, finished = pool.gen.Load(), pool.finished
		b = c.Batch()
		waitOn = waitOn[:0]
		mine := pool.slots[j]
		if len(mine) == 0 {
			return
		}
		end := track.Span("consume")
		for _, qi := range mine {
			q := c.Queues[qi]
			if !pool.acquire(qi, j) {
				continue
			}
			held = qi
			closed := q.Closed()
			if closed && !draining {
				draining = true
				if drainHook != nil {
					drainHook(j)
				}
			}
			// While the producer is live, wait for full blocks (§IV-C);
			// take short what it flushed, or left behind when it closed.
			consumed += q.ConsumeBatch(b, closed || q.Flushing(), fold)
			if q.Drained() {
				toRetire = append(toRetire, qi)
			} else {
				waitOn = append(waitOn, q)
			}
			c.Mirrors[qi].StoreConsumer(q.ConsumerStats())
			pool.release(qi)
			held = -1
		}
		if consumed > 0 {
			end()
		}
		return
	}

	for {
		if c.Abort() {
			pool.drainAbort(j, c.Batch())
			return
		}
		consumed, toRetire, gen, finished := round()
		if finished {
			return
		}
		for _, qi := range toRetire {
			pool.retire(qi)
		}
		switch {
		case consumed > 0:
			if draining {
				setState(telemetry.StateDraining)
			} else {
				setState(telemetry.StateWorking)
			}
			if c.Progress != nil {
				c.Progress()
			}
		case len(toRetire) == 0:
			if help != nil && len(waitOn) > 0 {
				setState(telemetry.StateHelping)
				if help() {
					continue
				}
				help = nil
			}
			setState(telemetry.StateIdle)
			spsc.Park(c.Gates[j], waitOn, b, func() bool {
				return c.Abort() || pool.gen.Load() != gen
			})
		}
	}
}
