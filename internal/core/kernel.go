// The pipeline kernel: the two hot loops of the paper's decoupled
// map → SPSC ring → batched-combine pipeline (§III, Fig. 2), written once.
// A Lane is a task-taking worker's producer side (emit slab → ring); combine
// is a combiner slot's consume loop (ring → apply, park when idle,
// drain-and-discard on abort). Both are generic over the ring element E and
// never look inside one. A lane with no ring folds each pair where it is made
// (Fuse): that is every worker of a pool that ships no pair (Pool, DESIGN.md
// §5.2), and so every worker of a resident stream session. The one driver
// (Driver, engine.go), behind batch runs and stream sessions alike, decides
// where tasks come from and where folded batches go, and runs everything
// else through here.
package core

import (
	"context"
	"fmt"
	"runtime/pprof"
	"slices"
	"strconv"

	"ramr/internal/affinity"
	"ramr/internal/container"
	"ramr/internal/mr"
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
// goroutine has been unpinned.
func runWorker(ctx context.Context, engine string, r role, id, cpu int, body func(), recovered func(*mr.PanicError)) {
	labels := pprof.Labels("engine", engine, "role", r.label, "worker", strconv.Itoa(id))
	pprof.Do(ctx, labels, func(context.Context) {
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
// Pool.RunWorker.
//
// A lane with no ring is a fused worker's: its driver emits through Fuse,
// so it stages nothing at all and has no slab.
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

// NewLane builds worker id's lane over q (nil: no ring, and no slab). The
// slab is clamped to the ring: PushBatch copies oversized blocks in chunks
// anyway, but a slab beyond the ring capacity only adds latency before the
// combiner sees anything.
func NewLane[E any](q *spsc.Queue[E], emitBatch, id int, hooks *mr.Hooks) *Lane[E] {
	l := &Lane[E]{q: q, id: id}
	if q != nil {
		if emitBatch <= 0 {
			emitBatch = mr.DefaultEmitBatch
		}
		l.slab = make([]E, 0, min(emitBatch, q.Cap()))
	}
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
// made: c's own fold (Container.Fold), which counts each pair on l as folded
// as it is handed over — no slab, no ring (DESIGN.md §5.2). It is Phoenix++'s
// fused step; the driver builds one per container a worker owns, so a pair
// costs one call into the container and combine's, and a pane switch
// between tasks is a lookup.
func Fuse[E any, K comparable, V any](l *Lane[E], c container.Container[K, V], combine container.Combine[V]) func(K, V) {
	return HookEmit(l, c.Fold(combine, &l.folded))
}

// BeginTask marks the start of one map task.
func (l *Lane[E]) BeginTask() {
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
// stream sessions report: a run's rings' counters, its steal takes and what
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

// startSlots spawns, on a sibling plan, one goroutine per combiner slot,
// each on a shard it registers in the ledger and over the run of rings
// QueueAssignment gives it — the rings of the mappers the plan placed beside
// it (§III-B, Fig. 3), whose wake-ups it points at the slot's gate. Nothing
// ever moves a ring to another slot, which is what makes every ring
// single-consumer. A slot exits once every ring it owns is closed and
// drained.
func (p *Pool[E]) startSlots(ctx context.Context, fold func(int) func([]E)) {
	for j, r := range QueueAssignment(len(p.queues), len(p.gates)) {
		own := p.queues[r[0]:r[1]:r[1]]
		for _, q := range own {
			q.SetGate(p.gates[j])
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			tw := p.Ledger.Register(combinerRole.label, j)
			runWorker(ctx, p.engine, combinerRole, j, p.plan.CombinerCPU[j], func() {
				p.combine(p.newSlot(j, own, fold(j), tw))
			}, func(pe *mr.PanicError) {
				// A failed slot keeps draining (and discarding) so
				// producers blocked on full rings can run to completion.
				p.Fail(pe)
				p.drainAbort(j, own, tw)
			})
		}()
	}
}

// drainAbort is the abort path, stated once for every pipeline: slot j
// discard-drains the rings it owns so producers blocked on full rings can
// finish, and books them, since a discard counts as a pop. Rings it already
// retired are drained, and skipped.
func (p *Pool[E]) drainAbort(j int, own []*spsc.Queue[E], tw *telemetry.Worker) {
	spsc.DrainDiscard(p.gates[j], own, p.batch)
	bookRings(own, tw)
}

// bookRings stores the consumer side of the rings a slot owns, summed, on its
// shard. The slot is their only consumer, so it may read their counters.
func bookRings[E any](own []*spsc.Queue[E], tw *telemetry.Worker) {
	var pops, emptyPolls, shortPolls, batchCalls uint64
	for _, q := range own {
		p, e, s, b := q.ConsumerStats()
		pops, emptyPolls, shortPolls, batchCalls = pops+p, emptyPolls+e, shortPolls+s, batchCalls+b
	}
	tw.StoreConsumer(pops, emptyPolls, shortPolls, batchCalls)
}

// slot is one combiner slot's consume state: the rings it owns, the ones
// not yet drained, and its fold.
type slot[E any] struct {
	p         *Pool[E]
	j         int
	own       []*spsc.Queue[E]
	live      []*spsc.Queue[E] // the undrained rings, which an idle slot parks on
	tw        *telemetry.Worker
	fold      func([]E) // the driver's fold for this slot, behind the CombineBatch hook
	drainHook func(int)
	draining  bool
}

// newSlot builds slot j's state over the rings it owns.
func (p *Pool[E]) newSlot(j int, own []*spsc.Queue[E], fold func([]E), tw *telemetry.Worker) *slot[E] {
	s := &slot[E]{p: p, j: j, own: own, live: slices.Clone(own), tw: tw, fold: fold}
	if hk := p.cfg.Hooks; hk != nil {
		s.drainHook = hk.CombineDrain
		if hk.CombineBatch != nil {
			s.fold = func(seg []E) {
				hk.CombineBatch(j)
				fold(seg)
			}
		}
	}
	return s
}

// round polls each live ring once — while its producer is live it waits
// for full blocks (§IV-C), and takes short what the producer left behind
// when it closed — retires the drained ones, and books the slot's rings.
// It takes no lock: no other goroutine ever consumes them.
func (s *slot[E]) round() (consumed, retired int) {
	kept := s.live[:0]
	for _, q := range s.live {
		closed := q.Closed()
		if closed && !s.draining {
			s.draining = true
			if s.drainHook != nil {
				s.drainHook(s.j)
			}
		}
		consumed += q.ConsumeBatch(s.p.batch, closed, s.fold)
		if !q.Drained() {
			kept = append(kept, q)
		}
	}
	retired = len(s.live) - len(kept)
	s.live = kept
	bookRings(s.own, s.tw)
	return consumed, retired
}

// combine is one combiner slot's life: consume rounds over the rings it
// owns, retiring each as it drains; when a round found nothing, park on the
// slot's gate; and once the run is doomed stop feeding user code and
// discard-drain instead, so producers blocked on full rings unwedge without
// burning user-code cycles. A panic in a fold unwinds straight to the slot's
// recovery.
func (p *Pool[E]) combine(s *slot[E]) {
	track := p.cfg.Trace.Worker("combiner", s.j)
	defer track.Publish()
	for len(s.live) > 0 {
		if p.Aborted() {
			p.drainAbort(s.j, s.own, s.tw)
			return
		}
		end := track.Span("consume")
		consumed, retired := s.round()
		switch {
		case consumed > 0:
			end()
		case retired == 0:
			spsc.Park(p.gates[s.j], s.live, p.batch, p.Aborted)
		}
	}
}
