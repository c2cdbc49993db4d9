// Combiner pool + online tuner driver. The pool answers the one question
// the kernel's consume loop (kernel.go) never decides itself — which rings
// does slot j consume this round — for every pipeline: an untuned batch run
// and a stream session build a pool nobody resizes; with mr.Config.Tuner
// set the pool grows and shrinks while the map phase runs (the adaptive
// runtime the paper's hand-tuned knobs imply but never build), and a
// deterministic controller (internal/tuner) re-tunes the consume batch
// size from live telemetry deltas.
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
	"sort"
	"sync"
	"sync/atomic"

	"ramr/internal/obs"
	"ramr/internal/spsc"
	"ramr/internal/telemetry"
	"ramr/internal/tuner"
)

// elasticPool owns the queue→combiner-slot assignment of a run. Slots
// 0..active-1 share the live queues (contiguous QueueAssignment runs of
// the order it was built over, the same rule the pinning plan places
// combiners by); slots beyond active are parked with no queues. Drained
// queues retire out of the assignment; when the last one retires, every
// slot exits. It never looks inside a ring element.
type elasticPool[E any] struct {
	queues []*spsc.Queue[E]
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

func newElasticPool[E any](queues []*spsc.Queue[E], gates []*spsc.Gate, order []int, active int, guarded bool, onViolation func(queue, holder, claimant int)) *elasticPool[E] {
	p := &elasticPool[E]{
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

// splitLocked deals the live queues over the active slots by the one
// split rule, QueueAssignment (so each combiner's set stays a dense run of
// the order, and an unresized pool consumes exactly what BuildPlanOn pinned
// next to it), pointing each ring's wake-ups at its new owner's gate, and
// clears the rest. Callers hold the write lock.
func (p *elasticPool[E]) splitLocked() {
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
	for j, r := range QueueAssignment(len(p.live), n) {
		p.slots[j] = append([]int(nil), p.live[r[0]:r[1]]...)
		for _, qi := range p.slots[j] {
			p.queues[qi].SetGate(p.gates[j])
		}
	}
}

// broadcastLocked wakes every parked slot so it re-reads its assignment.
func (p *elasticPool[E]) broadcastLocked() {
	p.gen.Add(1)
	for _, g := range p.gates {
		g.Wake()
	}
}

// Resize sets the active slot count and redistributes the live queues.
// No-op once frozen (abort) or when n is unchanged or out of range.
func (p *elasticPool[E]) Resize(n int) {
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
func (p *elasticPool[E]) retire(qi int) {
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
func (p *elasticPool[E]) freeze(j int) []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.frozen {
		p.frozen = true
		p.broadcastLocked()
	}
	return append([]int(nil), p.slots[j]...)
}

// drainAbort is the abort path, stated once for every pipeline: freeze the
// assignment, discard-drain this slot's queues so producers blocked on
// full rings can finish, then retire them.
func (p *elasticPool[E]) drainAbort(j, batch int) {
	mine := p.freeze(j)
	qs := make([]*spsc.Queue[E], len(mine))
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
func (p *elasticPool[E]) acquire(qi, j int) bool {
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

func (p *elasticPool[E]) release(qi int) {
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

// ResolveTuner fills the machine-dependent bounds of a user tuner config:
// the pool is bounded by the mapper count (a ring has at most one
// consumer, so extra combiners could never own a queue) and the batch by
// the ring capacity (the deadlock clamp every consume batch gets).
func ResolveTuner(tcfg tuner.Config, mappers, queueCap int) tuner.Config {
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
	track *obs.Track // the "tuner" lane apply records onto; published by Stop

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
// so Report is safe from any goroutine and the tuner lane is published.
func (d *TunerDriver) Stop() {
	d.mu.Lock()
	d.stopped = true
	d.track.Publish()
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

// StartTuner builds the controller at start, over bounds ResolveTuner
// already filled, and wires it into tel's sampler. Each epoch's settings go
// to apply on the sampler goroutine — the batch re-clamped to the ring, the
// deadlock bound no controller state may cross — and, when the run is
// traced, onto a "tuner" lane.
func StartTuner[E any](tcfg tuner.Config, start tuner.Settings, tel *telemetry.Telemetry, tr *obs.Recorder, queues []*spsc.Queue[E], apply func(tuner.Settings)) *TunerDriver {
	track := tr.Track("tuner")
	caps := make([]int, len(queues))
	for i, q := range queues {
		caps[i] = q.Cap()
	}
	drv := StartTunerDriver(tuner.NewController(tcfg, start), tel, caps, func(d tuner.Decision) {
		d.Settings.Batch = min(max(d.Settings.Batch, 1), caps[0])
		apply(d.Settings)
		track.Span("epoch", obs.Str("action", d.Action),
			obs.Int("combiners", d.Settings.Combiners), obs.Int("batch", d.Settings.Batch))()
	})
	drv.track = track
	return drv
}
