// The pipeline kernel: the two hot loops of the paper's decoupled
// map → SPSC ring → batched-combine pipeline (§III, Fig. 2), written once.
// A Lane is a mapper's producer side (emit slab → ring); combine is a
// combiner slot's consume loop (ring → apply, park when idle,
// drain-and-discard on abort). Both are generic over the ring element E and
// never look inside one. Work conservation lives here too: a lane with no
// ring folds each pair where it is made (Fuse), which is all a run's workers
// do once every one has a CPU of its own, batch run or stream session alike.
// The batch engine (engine.go) and the resident stream session
// (internal/stream) are drivers: they decide where tasks come from and where
// folded batches go, and run everything else through here.
package core

import (
	"context"
	"fmt"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"

	"ramr/internal/affinity"
	"ramr/internal/container"
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
// from combiner time), pins it to cpu (cpu < 0 leaves it to the OS) and
// runs body; body runs inside the labelled closure so the recover stays in
// the panicking frame chain. A panic in body — user code or an injected
// fault — is handed to recovered as the run's typed error after the
// goroutine has been unpinned; the worker's ledger shard tw is marked done
// last, whatever happened.
func runWorker(ctx context.Context, engine string, r role, id, cpu int, tw *telemetry.Worker, body func(), recovered func(*mr.PanicError)) {
	labels := pprof.Labels("engine", engine, "role", r.label, "worker", strconv.Itoa(id))
	pprof.Do(ctx, labels, func(context.Context) {
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
		body()
	})
}

// Lane is one mapper's producer side: its ring, the emit slab in front of
// it and the worker's ledger shard, on which it books its ring's producer
// counters and its fold count at every task end. Emitted elements are
// staged in the slab and published as blocks, so the ring's shared tail
// index (and the cross-core traffic on its cache line) is touched once per
// slab instead of once per element; the slab flushes when full, at every
// task boundary and before the ring closes. A slab of one (EmitBatch 1) is
// the unbatched ablation baseline. A Lane belongs to the goroutine inside
// Run.
//
// A lane with no ring is a fused worker's: its driver emits through Fuse,
// so it stages nothing at all.
type Lane[E any] struct {
	q        *spsc.Queue[E] // nil on a fused worker's lane
	slab     []E
	id       int
	emitHook func(int) // Hooks.MapEmit
	taskHook func(int) // Hooks.MapTask
	tw       *telemetry.Worker
	done     uint64 // elements pushed or folded up to the last task boundary
	folded   uint64 // elements folded where they were made
}

// NewLane builds worker id's lane over q (nil: no ring). The slab is
// clamped to the ring: PushBatch copies oversized blocks in chunks anyway,
// but a slab beyond the ring capacity only adds latency before the combiner
// sees anything.
func NewLane[E any](q *spsc.Queue[E], emitBatch, id int, hooks *mr.Hooks) *Lane[E] {
	if emitBatch <= 0 {
		emitBatch = mr.DefaultEmitBatch
	}
	if q != nil {
		emitBatch = min(emitBatch, q.Cap())
	}
	l := &Lane[E]{q: q, slab: make([]E, 0, emitBatch), id: id}
	if hooks != nil {
		l.emitHook, l.taskHook = hooks.MapEmit, hooks.MapTask
	}
	return l
}

// workerRole names worker w of a task-taking pool whose first mappers
// workers are its mappers: w itself, or on a fused pool, where every worker
// maps, combine worker w-mappers.
func workerRole(w, mappers int) (role, int) {
	if w < mappers {
		return mapperRole, w
	}
	return combinerRole, w - mappers
}

// Run executes body as worker l.id of a task-taking pool whose first
// mappers workers are its mappers (workerRole), on a shard it registers in
// ledger, under the worker prologue, and always ends by booking the lane
// and closing its ring, if it has one — the combiner must be notified
// however the mapper ends, and a push after Close panics. A panicked Map
// leaves a half-built slab whose elements must never reach Combine (the run
// is doomed), so after a panic the error goes to fail first and the exit
// flush is skipped.
func (l *Lane[E]) Run(ctx context.Context, engine string, mappers, cpu int, ledger *telemetry.Ledger, fail func(error), body func(*telemetry.Worker)) {
	r, id := workerRole(l.id, mappers)
	l.tw = ledger.Register(r.label, id)
	exit := func(failed bool) {
		if !failed {
			l.flush()
		}
		l.book()
		if l.q != nil {
			l.q.Close()
		}
	}
	runWorker(ctx, engine, r, id, cpu, l.tw, func() {
		body(l.tw)
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

// flush publishes the slab to the ring, waiting for room if it must.
//
//go:noinline
func (l *Lane[E]) flush() {
	if len(l.slab) == 0 {
		return
	}
	l.q.PushBatch(l.slab)
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

// Fuse returns l's emit closure for a run that folds each pair where it is
// made: one Update into the container *c, booked on l as folded as it is
// handed over — no slab, no ring (DESIGN.md §5.2). It is Phoenix++'s fused
// step; build it once per worker, not per task. *c is the worker's own
// container, which its driver may repoint between tasks (a stream session's
// worker picks the task's pane's), never during one.
func Fuse[E any, K comparable, V any](l *Lane[E], c *container.Container[K, V], combine container.Combine[V]) func(K, V) {
	return HookEmit(l, func(k K, v V) {
		l.folded++
		(*c).Update(k, v, combine)
	})
}

// BeginTask marks the start of one map task.
func (l *Lane[E]) BeginTask() {
	l.tw.SetState(telemetry.StateWorking)
	if l.taskHook != nil {
		l.taskHook(l.id)
	}
}

// EndTask publishes what the task emitted: the slab is flushed, so every
// element is visible to the consumer when it returns (a fused lane's were
// folded as they were made), and the task is booked on the worker's shard.
// It returns the task's element count, taken from the ring's own push
// counter and the lane's fold count; only a fused lane counts per pair.
func (l *Lane[E]) EndTask() (emitted uint64) {
	l.flush()
	done := l.book()
	emitted, l.done = done-l.done, done
	l.tw.AddTask(emitted)
	return emitted
}

// book stores the lane's plain counters on its shard — the pairs it folded
// and its ring's producer side — and returns the elements it has published
// so far, pushed or folded.
func (l *Lane[E]) book() (published uint64) {
	l.tw.StoreFolded(l.folded)
	if l.q == nil {
		return l.folded
	}
	pushes, failedPush, slept := l.q.ProducerStats()
	l.tw.StoreProducer(pushes, failedPush, slept)
	return pushes + l.folded
}

// Books converts a ledger's totals into the statistics batch runs and
// stream sessions report: their rings' counters, their steal takes and what
// work conservation moved. It is the one place they are formed.
func Books(t telemetry.Totals) (mr.QueueStats, mr.StealStats, mr.HelpStats) {
	return mr.QueueStats{
			Pushes:      t.Pushes,
			FailedPush:  t.FailedPush,
			Pops:        t.Pops,
			EmptyPolls:  t.EmptyPolls,
			ShortPolls:  t.ShortPolls,
			BatchCalls:  t.Batches,
			SleepMicros: t.SleepMicros,
		}, mr.StealStats{
			LocalBatches:   t.LocalBatches,
			LocalTasks:     t.LocalTakes,
			SocketBatches:  t.SocketBatches,
			SocketTasks:    t.SocketSteals,
			RemoteBatches:  t.RemoteBatches,
			RemoteTasks:    t.RemoteSteals,
			RemoteExecuted: t.RemoteExecuted,
		}, mr.HelpStats{
			Tasks:         t.TasksHelped,
			CombinerPairs: t.FoldedByCombiners,
			MapperPairs:   t.FoldedByMappers,
		}
}

// Combiners describes one combiner pool over a set of rings: len(Gates)
// slots, each owning a fixed run of the rings for the whole run (see
// splitRings). The funcs are the whole interface between the consume loop
// and its driver.
type Combiners[E any] struct {
	Engine string // pprof label and PanicError.Engine
	Queues []*spsc.Queue[E]
	Gates  []*spsc.Gate // one per slot; the run's abort path wakes them
	Order  []int        // ring indices in the order the slots split them
	CPUs   []int        // per slot, -1 = unpinned
	Ledger *telemetry.Ledger
	Trace  *obs.Recorder
	Hooks  *mr.Hooks

	// Batch is the consume batch size; it must stay within [1, ring
	// capacity] — a batch larger than the ring could never fill while a
	// producer is blocked on a full queue, deadlocking the pipeline.
	Batch int
	// Apply returns slot's fold: it receives each consumed ring segment
	// and owns where the elements go.
	Apply func(slot int) func([]E)
	// Abort reports whether the run is doomed; Fail records an error and
	// dooms it (and must wake Gates).
	Abort func() bool
	Fail  func(error)
	// Progress, if set, runs after every round that consumed something.
	Progress func()
}

// splitRings deals the rings, in order, over slots by the one split rule,
// QueueAssignment: each slot gets a dense run of the order, so a pool over
// the order BuildPlanOn pinned by consumes exactly the rings placed next to
// each combiner. The split is fixed for the run; nothing ever moves a ring
// to another slot, which is what makes every ring single-consumer.
func splitRings(order []int, slots int) [][]int {
	own := make([][]int, slots)
	for j, r := range QueueAssignment(len(order), slots) {
		own[j] = slices.Clone(order[r[0]:r[1]])
	}
	return own
}

// StartCombiners spawns one goroutine per slot, accounted on wg, each over
// its own run of the rings (whose wake-ups it points at the slot's gate)
// and on a shard it registers in c.Ledger. A slot exits once every ring it
// owns is closed and drained.
func StartCombiners[E any](ctx context.Context, wg *sync.WaitGroup, c Combiners[E]) {
	for j, own := range splitRings(c.Order, len(c.Gates)) {
		for _, qi := range own {
			c.Queues[qi].SetGate(c.Gates[j])
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			tw := c.Ledger.Register(combinerRole.label, j)
			runWorker(ctx, c.Engine, combinerRole, j, c.CPUs[j], tw, func() {
				combine(&c, j, own, tw)
			}, func(pe *mr.PanicError) {
				// A failed combiner keeps draining (and discarding) so
				// producers blocked on full rings can run to completion.
				c.Fail(pe)
				c.drainAbort(j, own, tw)
			})
		}()
	}
}

// drainAbort is the abort path, stated once for every pipeline: slot j
// discard-drains the rings it owns so producers blocked on full rings can
// finish, and books them, since a discard counts as a pop. Rings it already
// retired are drained, and skipped.
func (c *Combiners[E]) drainAbort(j int, own []int, tw *telemetry.Worker) {
	qs := make([]*spsc.Queue[E], len(own))
	for i, qi := range own {
		qs[i] = c.Queues[qi]
	}
	spsc.DrainDiscard(c.Gates[j], qs, c.Batch)
	c.book(own, tw)
}

// book stores the consumer side of the rings a slot owns, summed, on its
// shard. The slot is their only consumer, so it may read their counters.
func (c *Combiners[E]) book(own []int, tw *telemetry.Worker) {
	var pops, emptyPolls, shortPolls, batchCalls uint64
	for _, qi := range own {
		p, e, s, b := c.Queues[qi].ConsumerStats()
		pops, emptyPolls, shortPolls, batchCalls = pops+p, emptyPolls+e, shortPolls+s, batchCalls+b
	}
	tw.StoreConsumer(pops, emptyPolls, shortPolls, batchCalls)
}

// slot is one combiner slot's consume state: the rings it owns, the ones
// not yet drained, and its fold.
type slot[E any] struct {
	c         *Combiners[E]
	j         int
	own       []int
	live      []int            // the undrained rings, by index
	waitOn    []*spsc.Queue[E] // the same rings, which an idle slot parks on
	tw        *telemetry.Worker
	fold      func([]E) // Apply's fold for this slot, behind the CombineBatch hook
	drainHook func(int)
	draining  bool
}

// newSlot builds slot j's state over the rings it owns.
func newSlot[E any](c *Combiners[E], j int, own []int, tw *telemetry.Worker) *slot[E] {
	s := &slot[E]{c: c, j: j, own: own, live: slices.Clone(own), waitOn: make([]*spsc.Queue[E], 0, len(own)), tw: tw}
	s.fold = c.Apply(j)
	if hk := c.Hooks; hk != nil {
		s.drainHook = hk.CombineDrain
		if apply := s.fold; hk.CombineBatch != nil {
			s.fold = func(seg []E) {
				hk.CombineBatch(j)
				apply(seg)
			}
		}
	}
	return s
}

// round polls each live ring once — while its producer is live it waits
// for full blocks (§IV-C), and takes short what the producer flushed, or
// left behind when it closed — retires the drained ones, and books the
// slot's rings. It takes no lock: no other goroutine ever consumes them.
func (s *slot[E]) round() (consumed, retired int) {
	kept := s.live[:0]
	s.waitOn = s.waitOn[:0]
	for _, qi := range s.live {
		q := s.c.Queues[qi]
		closed := q.Closed()
		if closed && !s.draining {
			s.draining = true
			if s.drainHook != nil {
				s.drainHook(s.j)
			}
		}
		consumed += q.ConsumeBatch(s.c.Batch, closed || q.Flushing(), s.fold)
		if !q.Drained() {
			kept = append(kept, qi)
			s.waitOn = append(s.waitOn, q)
		}
	}
	retired = len(s.live) - len(kept)
	s.live = kept
	s.c.book(s.own, s.tw)
	return consumed, retired
}

// combine is one combiner slot's life: consume rounds over the rings it
// owns, retiring each as it drains; when a round found nothing, park on the
// slot's gate; and once the run is doomed stop feeding user code and
// discard-drain instead, so producers blocked on full rings unwedge without
// burning user-code cycles. A panic in a fold unwinds straight to the slot's
// recovery.
func combine[E any](c *Combiners[E], j int, own []int, tw *telemetry.Worker) {
	track := c.Trace.Worker("combiner", j)
	defer track.Publish()
	s := newSlot(c, j, own, tw)
	// state stores only on transitions, not once per round.
	curState := telemetry.StateIdle
	setState := func(st telemetry.State) {
		if st != curState {
			curState = st
			tw.SetState(st)
		}
	}
	for len(s.live) > 0 {
		if c.Abort() {
			c.drainAbort(j, own, tw)
			return
		}
		end := track.Span("consume")
		consumed, retired := s.round()
		switch {
		case consumed > 0:
			end()
			if s.draining {
				setState(telemetry.StateDraining)
			} else {
				setState(telemetry.StateWorking)
			}
			if c.Progress != nil {
				c.Progress()
			}
		case retired == 0:
			setState(telemetry.StateIdle)
			spsc.Park(c.Gates[j], s.waitOn, c.Batch, c.Abort)
		}
	}
}
