// Elastic combiner pool + online tuner driver: the adaptive runtime the
// paper's hand-tuned knobs imply but never build. With mr.Config.Tuner
// set, the combiner pool can grow and shrink while the map phase runs,
// and a deterministic controller (internal/tuner) re-tunes the consume
// batch size from live telemetry deltas.
//
// Correctness rests on one lock discipline: the SPSC queues tolerate
// exactly one consumer at a time, and the consumer side caches the head
// index, so handing a queue from combiner A to combiner B needs both
// exclusivity and a happens-before edge from A's last pop to B's first.
// The pool provides both with a single RWMutex: a combiner holds the read
// lock for one whole polling round over its assigned queues, and every
// reassignment (grow, shrink, retire) takes the write lock — so no round
// can straddle an ownership change, and the lock ordering publishes A's
// consumer-side cache to B. Reassignment is rare (once per controller
// epoch at most), so the RLock is effectively uncontended.
//
// An idle slot parks outside the lock, on its own gate; every reassignment
// bumps the pool's generation and wakes every gate, and a slot about to
// park re-checks the generation, so no slot sleeps through a change to
// what it owns.
package core

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"ramr/internal/affinity"
	"ramr/internal/container"
	"ramr/internal/mr"
	"ramr/internal/spsc"
	"ramr/internal/telemetry"
	"ramr/internal/trace"
	"ramr/internal/tuner"
)

// elasticPool owns the queue→combiner-slot assignment of a tuned run.
// Slots 0..active-1 share the live queues (contiguous runs of the
// locality-dense order, like the static QueueAssignment); slots beyond
// active are parked with no queues. Drained queues retire out of the
// assignment; when the last one retires, every slot exits.
type elasticPool[K comparable, V any] struct {
	queues []*spsc.Queue[pair[K, V]]
	gates  []*spsc.Gate // per slot

	mu       sync.RWMutex
	live     []int   // unretired queue indices, locality-dense order
	slots    [][]int // per slot: owned queue indices
	active   int
	frozen   bool          // abort: assignment pinned for the drain
	finished bool          // every queue has retired
	gen      atomic.Uint64 // bumped on every reassignment
	retired  []bool

	// guards are optional per-queue single-consumer tokens, enabled only
	// for instrumented runs (cfg.Hooks != nil): each consume round CASes
	// the token of every queue it touches, so any violation of the
	// one-consumer-per-ring invariant is detected, not silently raced.
	guards      []atomic.Int32
	guarded     bool
	onViolation func(queue, holder, claimant int)
}

func newElasticPool[K comparable, V any](queues []*spsc.Queue[pair[K, V]], gates []*spsc.Gate, order []int, active int, guarded bool, onViolation func(queue, holder, claimant int)) *elasticPool[K, V] {
	p := &elasticPool[K, V]{
		queues:      queues,
		gates:       gates,
		live:        append([]int(nil), order...),
		slots:       make([][]int, len(gates)),
		active:      active,
		retired:     make([]bool, len(queues)),
		guarded:     guarded,
		onViolation: onViolation,
	}
	if guarded {
		p.guards = make([]atomic.Int32, len(queues))
	}
	p.splitLocked()
	return p
}

// splitLocked deals the live queues contiguously over the active slots
// (so each combiner's set stays a dense locality run), pointing each
// ring's wake-ups at its new owner's gate, and clears the rest. Callers
// hold the write lock.
func (p *elasticPool[K, V]) splitLocked() {
	for j := range p.slots {
		p.slots[j] = nil
	}
	n := p.active
	if n > len(p.slots) {
		n = len(p.slots)
	}
	if n < 1 {
		n = 1
	}
	base, rem := len(p.live)/n, len(p.live)%n
	lo := 0
	for j := 0; j < n; j++ {
		sz := base
		if j < rem {
			sz++
		}
		p.slots[j] = append([]int(nil), p.live[lo:lo+sz]...)
		for _, qi := range p.slots[j] {
			p.queues[qi].SetGate(p.gates[j])
		}
		lo += sz
	}
}

// broadcastLocked wakes every parked slot so it re-reads its assignment.
func (p *elasticPool[K, V]) broadcastLocked() {
	p.gen.Add(1)
	for _, g := range p.gates {
		g.Wake()
	}
}

// Resize sets the active slot count and redistributes the live queues.
// No-op once frozen (abort) or when n is unchanged or out of range.
func (p *elasticPool[K, V]) Resize(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.frozen || n == p.active || n < 1 || n > len(p.slots) {
		return
	}
	p.active = n
	p.splitLocked()
	p.broadcastLocked()
}

// retire removes a drained queue from the assignment. Only the slot that
// observed Drained calls it, after releasing its read lock. Drained is
// terminal, so the re-check under the write lock can only confirm it.
func (p *elasticPool[K, V]) retire(qi int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.retired[qi] || !p.queues[qi].Drained() {
		return
	}
	p.retired[qi] = true
	for j := range p.slots {
		p.slots[j] = removeIndex(p.slots[j], qi)
	}
	p.live = removeIndex(p.live, qi)
	if len(p.live) == 0 {
		p.finished = true
		p.broadcastLocked()
	}
}

// freeze pins the assignment for the abort drain and returns slot j's
// queues. The first caller flips the flag and wakes parked slots so they
// observe the abort; after freeze no Resize can move a queue, so each
// live queue has exactly one slot responsible for discard-draining it.
func (p *elasticPool[K, V]) freeze(j int) []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.frozen {
		p.frozen = true
		p.broadcastLocked()
	}
	return append([]int(nil), p.slots[j]...)
}

// drainAbort is the elastic twin of the static path's abort handling:
// freeze the assignment, discard-drain this slot's queues so producers
// blocked on full rings can finish, then retire them.
func (p *elasticPool[K, V]) drainAbort(j, batch int) {
	mine := p.freeze(j)
	qs := make([]*spsc.Queue[pair[K, V]], len(mine))
	for i, qi := range mine {
		qs[i] = p.queues[qi]
	}
	spsc.DrainDiscard(p.gates[j], qs, batch)
	for _, qi := range mine {
		p.retire(qi)
	}
}

// acquire/release are the single-consumer guard. With guards off they
// cost nothing; with guards on a failed CAS means two combiners touched
// one ring concurrently — the invariant the pool lock must make
// impossible.
func (p *elasticPool[K, V]) acquire(qi, j int) bool {
	if !p.guarded {
		return true
	}
	if !p.guards[qi].CompareAndSwap(0, int32(j)+1) {
		if p.onViolation != nil {
			p.onViolation(qi, int(p.guards[qi].Load())-1, j)
		}
		return false
	}
	return true
}

func (p *elasticPool[K, V]) release(qi int) {
	if p.guarded {
		p.guards[qi].Store(0)
	}
}

func removeIndex(s []int, v int) []int {
	for i, x := range s {
		if x == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
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

// elasticArgs bundles what the elastic pool and tuner driver need from
// RunContext.
type elasticArgs[K comparable, V any] struct {
	ctx        context.Context
	cfg        mr.Config
	tcfg       tuner.Config // bounds already resolved by resolveTuner
	queues     []*spsc.Queue[pair[K, V]]
	mirrors    []*telemetry.QueueMirror
	containers []container.Container[K, V]
	gates      []*spsc.Gate // one per combiner slot; RunContext's trip wakes them
	combine    container.Combine[V]
	plan       Plan
	order      []int // queue indices, locality-dense
	initial    int   // starting pool size
	batch      int   // starting consume batch (pre-clamped to capacity)
	tel        *telemetry.Telemetry
	abort      *atomic.Bool
	trip       func()
	firstErr   *mr.FirstError
	wg         *sync.WaitGroup
}

// resolveTuner fills the machine-dependent bounds of a user tuner config:
// the pool is bounded by the mapper count (a ring has at most one
// consumer, so extra combiners could never own a queue) and the batch by
// the ring capacity (the same deadlock clamp the static path applies).
func resolveTuner(tcfg tuner.Config, mappers, queueCap int) tuner.Config {
	if tcfg.MaxCombiners <= 0 || tcfg.MaxCombiners > mappers {
		tcfg.MaxCombiners = mappers
	}
	if tcfg.MinCombiners <= 0 {
		tcfg.MinCombiners = 1
	}
	if tcfg.MinCombiners > tcfg.MaxCombiners {
		tcfg.MinCombiners = tcfg.MaxCombiners
	}
	maxB := tcfg.MaxBatch
	if maxB <= 0 {
		maxB = tuner.DefaultMaxBatch
	}
	if maxB > queueCap {
		maxB = queueCap
	}
	tcfg.MaxBatch = maxB
	minB := tcfg.MinBatch
	if minB <= 0 {
		minB = tuner.DefaultMinBatch
	}
	if minB > maxB {
		minB = maxB
	}
	tcfg.MinBatch = minB
	return tcfg
}

// TunerDriver adapts telemetry into the controller's Signals and applies
// its Decisions; the signals are engine-agnostic, so the batch engine's
// elastic pool and the resident stream pipeline share it. It runs on the
// sampler goroutine via the telemetry observer; Stop fences it so the
// report can be read race-free.
type TunerDriver struct {
	mu      sync.Mutex
	stopped bool

	ctrl  *tuner.Controller
	tel   *telemetry.Telemetry
	apply func(tuner.Decision)

	epochTicks int
	ticks      int
	occ        []float64 // sampled occupancies within the current epoch
	imb        []float64 // per-tick imbalance ratios within the current epoch
	caps       []float64 // per-queue capacity, indexed like Sample.Depths
	prev       telemetry.Counters
}

// StartTunerDriver wires a driver for ctrl into tel's sampler: apply
// receives every epoch's decision on the sampler goroutine. queueCaps is
// each registered queue's capacity, indexed like Sample.Depths.
func StartTunerDriver(ctrl *tuner.Controller, tel *telemetry.Telemetry, queueCaps []int, apply func(tuner.Decision)) *TunerDriver {
	d := &TunerDriver{ctrl: ctrl, tel: tel, apply: apply, epochTicks: ctrl.EpochTicks()}
	for _, c := range queueCaps {
		d.caps = append(d.caps, float64(c))
	}
	tel.SetObserver(d.observe)
	return d
}

// observe is the telemetry observer: accumulate occupancy, and at each
// epoch boundary form the Signals delta, advance the controller and apply
// its decision.
func (d *TunerDriver) observe(s telemetry.Sample) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopped {
		return
	}
	for i, depth := range s.Depths {
		if i < len(d.caps) && d.caps[i] > 0 {
			d.occ = append(d.occ, float64(depth)/d.caps[i])
		}
	}
	if len(s.Depths) > 0 {
		d.imb = append(d.imb, s.Imbalance)
	}
	d.ticks++
	if d.ticks < d.epochTicks {
		return
	}
	now := d.tel.CountersNow()
	sig := tuner.Signals{
		OccP90:         p90(d.occ),
		QueueImbalance: p90(d.imb),
		CombinedPairs:  now.Combined - d.prev.Combined,
		Ticks:          d.ticks,
	}
	if dp := (now.Pushes - d.prev.Pushes) + (now.FailedPush - d.prev.FailedPush); dp > 0 {
		sig.FailedPushRate = float64(now.FailedPush-d.prev.FailedPush) / float64(dp)
	}
	if polls := (now.BatchCalls - d.prev.BatchCalls) + (now.EmptyPolls - d.prev.EmptyPolls) + (now.ShortPolls - d.prev.ShortPolls); polls > 0 {
		sig.ShortPollRate = float64(now.ShortPolls-d.prev.ShortPolls) / float64(polls)
	}
	d.prev = now
	d.ticks = 0
	d.occ = d.occ[:0]
	d.imb = d.imb[:0]
	d.apply(d.ctrl.Advance(sig))
}

// Stop fences the driver: no Advance can be in flight after it returns,
// so Report is safe from any goroutine.
func (d *TunerDriver) Stop() {
	d.mu.Lock()
	d.stopped = true
	d.mu.Unlock()
}

// Report returns the controller's decision log so far.
func (d *TunerDriver) Report() *tuner.Report {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ctrl.Report()
}

// p90 returns the 90th percentile of vs (zero when empty). vs is reused
// by the caller; sorting in place is fine.
func p90(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	return vs[int(0.9*float64(len(vs)-1))]
}

// startElastic spawns the full complement of combiner slots (active ones
// consuming, the rest parked on the resume gate), wires the tuner driver
// into the telemetry sampler, and returns the driver for the end-of-run
// report. Combiners are accounted on a.wg like the static pool.
func startElastic[K comparable, V any](a *elasticArgs[K, V]) *TunerDriver {
	capQ := a.queues[0].Cap()

	var pool *elasticPool[K, V]
	guarded := a.cfg.Hooks != nil
	onViolation := func(queue, holder, claimant int) {
		a.firstErr.Set(fmt.Errorf("core: single-consumer invariant violated: queue %d consumed by combiner %d while owned by %d", queue, claimant, holder))
		a.trip()
	}
	pool = newElasticPool(a.queues, a.gates, a.order, a.initial, guarded, onViolation)

	// The consume batch is the one knob read on the combiner hot loop, so
	// it travels through an atomic the driver stores and each round loads.
	var batchA atomic.Int64
	batchA.Store(int64(a.batch))
	batchNow := func() int {
		b := int(batchA.Load())
		if b < 1 {
			b = 1
		}
		if b > capQ {
			b = capQ
		}
		return b
	}

	ctrl := tuner.NewController(a.tcfg, tuner.Settings{
		Combiners: a.initial,
		Batch:     a.batch,
	})

	var tunerShard *trace.Shard
	if a.cfg.Trace != nil {
		tunerShard = a.cfg.Trace.Shard("tuner")
	}
	curCombiners := a.initial
	caps := make([]int, len(a.queues))
	for i, q := range a.queues {
		caps[i] = q.Cap()
	}
	driver := StartTunerDriver(ctrl, a.tel, caps, func(d tuner.Decision) {
		if d.Settings.Combiners != curCombiners {
			curCombiners = d.Settings.Combiners
			pool.Resize(curCombiners)
		}
		batchA.Store(int64(d.Settings.Batch))
		if tunerShard != nil {
			tunerShard.Span("epoch", map[string]any{
				"action":    d.Action,
				"combiners": d.Settings.Combiners,
				"batch":     d.Settings.Batch,
			})()
		}
	})

	for j := range a.gates {
		a.wg.Add(1)
		go func(j int) {
			defer a.wg.Done()
			labels := pprof.Labels("engine", "ramr", "role", "combiner", "worker", strconv.Itoa(j))
			pprof.Do(a.ctx, labels, func(context.Context) {
				runElasticCombiner(a, pool, j, batchNow)
			})
		}(j)
	}
	return driver
}

// runElasticCombiner is one combiner slot's life: consume rounds over the
// currently assigned queues under the pool's read lock, park on the
// slot's gate when a round found nothing (an empty assignment never
// does), retire drained queues, and discard-drain on abort — the elastic
// twin of the static combiner loop.
func runElasticCombiner[K comparable, V any](a *elasticArgs[K, V], pool *elasticPool[K, V], j int, batchNow func() int) {
	var tw *telemetry.Worker
	if a.tel != nil {
		tw = a.tel.RegisterWorker("combiner", j)
	}
	defer tw.SetState(telemetry.StateDone)
	defer func() {
		if r := recover(); r == nil {
			return
		} else {
			a.firstErr.Set(&mr.PanicError{Engine: "ramr", Worker: fmt.Sprintf("combine worker %d", j), Value: r})
			a.trip()
		}
		pool.drainAbort(j, batchNow())
	}()
	if cpu := a.plan.CombinerCPU[j]; cpu >= 0 && affinity.Supported() {
		unpin, _ := affinity.PinSelf(cpu)
		defer unpin()
	}
	var shard *trace.Shard
	if a.cfg.Trace != nil {
		shard = a.cfg.Trace.Shard(fmt.Sprintf("combiner-%d", j))
	}
	c := a.containers[j]
	apply := func(batch []pair[K, V]) {
		c.UpdateBatch(batch, a.combine)
	}
	if tw != nil {
		inner := apply
		apply = func(batch []pair[K, V]) {
			tw.AddCombined(len(batch))
			tw.AddBatches(1)
			inner(batch)
		}
	}
	var drainHook func(int)
	if hk := a.cfg.Hooks; hk != nil {
		drainHook = hk.CombineDrain
		if hk.CombineBatch != nil {
			inner := apply
			apply = func(batch []pair[K, V]) {
				hk.CombineBatch(j)
				inner(batch)
			}
		}
	}
	curState := telemetry.StateIdle
	setState := func(s telemetry.State) {
		if s != curState {
			curState = s
			tw.SetState(s)
		}
	}
	draining := false

	// round runs one polling pass over the slot's assignment while
	// holding the read lock (the ownership critical section). The
	// deferred unlock keeps a user-code panic from wedging the pool:
	// the recover path above takes the write lock to freeze. It leaves in
	// waitOn the rings an idle slot parks on, and returns the assignment
	// generation that list is valid for.
	var waitOn []*spsc.Queue[pair[K, V]]
	b := batchNow()
	round := func() (consumed int, toRetire []int, gen uint64, finished bool) {
		pool.mu.RLock()
		defer pool.mu.RUnlock()
		gen, finished = pool.gen.Load(), pool.finished
		waitOn = waitOn[:0]
		mine := pool.slots[j]
		if len(mine) == 0 {
			return
		}
		b = batchNow()
		var end func()
		if shard != nil {
			end = shard.Span("consume", nil)
		}
		for _, qi := range mine {
			q := a.queues[qi]
			if !pool.acquire(qi, j) {
				continue
			}
			closed := q.Closed()
			if closed && !draining {
				draining = true
				if drainHook != nil {
					drainHook(j)
				}
			}
			consumed += q.ConsumeBatch(b, closed, apply)
			if q.Drained() {
				toRetire = append(toRetire, qi)
			} else {
				waitOn = append(waitOn, q)
			}
			a.mirrors[qi].StoreConsumer(q.ConsumerStats())
			pool.release(qi)
		}
		if end != nil && consumed > 0 {
			end()
		}
		return
	}

	for {
		// Same abort contract as the static path: once any worker
		// tripped the flag, stop feeding user Combine and discard-drain
		// so producers blocked on full rings unwedge.
		if a.abort.Load() {
			pool.drainAbort(j, batchNow())
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
		case consumed > 0 && draining:
			setState(telemetry.StateDraining)
		case consumed > 0:
			setState(telemetry.StateWorking)
		case len(toRetire) == 0:
			setState(telemetry.StateIdle)
			spsc.Park(a.gates[j], waitOn, b, func() bool {
				return a.abort.Load() || pool.gen.Load() != gen
			})
		}
	}
}
