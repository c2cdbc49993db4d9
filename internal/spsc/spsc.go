// Package spsc implements the fixed-capacity, lock-free single-producer/
// single-consumer ring buffer RAMR pipelines intermediate key-value pairs
// through (§III-A of the paper).
//
// The design follows Lamport's classic wait-free construction (the same one
// underlying boost::lockfree::spsc_queue, which the paper built on): a
// power-of-two ring with a producer-owned write index and a consumer-owned
// read index, each advanced with release stores and observed with acquire
// loads, with no compare-and-swap anywhere on the fast path. Go's
// sync/atomic provides the required acquire/release semantics.
//
// Three paper-motivated features sit on top of the plain ring:
//
//   - Cached indices: each side keeps a private, non-atomic snapshot of the
//     *other* side's index (the producer caches head, the consumer caches
//     tail) and refreshes it from the atomic only when the snapshot makes
//     the ring look full (producer) or too empty (consumer). Because both
//     indices advance monotonically, a stale snapshot only ever
//     *under-estimates* the free space or buffered elements — the ring can
//     appear fuller or emptier than it is, never the reverse — so
//     correctness is preserved while the steady state runs with almost no
//     cross-core cache-line traffic on the index lines.
//
//   - Park on failed push: pushes must always succeed eventually
//     (discarding pairs would corrupt the result), so a producer facing a
//     full ring blocks. Busy-waiting burns the very core its combiner
//     needs; the paper found sleeping after a failed trial faster. The
//     paper slept on a timer (usleep); a Go timer sleep of any length
//     returns after about a millisecond, some thirty ring-fulls of work,
//     so here both sides of the handoff wait on events instead (wait.go):
//     the blocked producer parks and its consumer wakes it once the ring
//     has drained to half, and a consumer that finds nothing to do parks
//     on a Gate the next useful push wakes. Busy-waiting is kept so the
//     ablation benchmark can compare the two.
//
//   - Batched transfers in both directions: the consumer pops blocks of
//     contiguous elements and processes them in place (ConsumeBatch), and
//     the producer appends whole blocks with a single index publish per
//     contiguous run (PushBatch), cutting contention on the shared indices
//     and exploiting spatial locality (§IV-C measures up to 11.4x from
//     batching alone).
package spsc

import (
	"fmt"
	"sync/atomic"
)

// DefaultCapacity is the ring capacity the sweep in EXPERIMENTS.md
// ("Handoff waits and ring geometry on Go") picked: the smallest one
// within noise of the best on every ring-bound app. The paper settled on
// 5000 slots for its C++ ring (§III-A); here half a ring has to outlast a
// goroutine wake-up and the refill behind it, and the ring is what absorbs
// the two sides' rate jitter, every dip to empty or full costing a
// park. 32768 slots are 512 KiB of KV[int,int], 768 KiB of KV[string,int],
// per mapper.
const DefaultCapacity = 32768

// WaitPolicy selects how a producer waits for space in a full ring.
type WaitPolicy int

const (
	// WaitSleep gives the processor up after a failed push — the policy
	// RAMR ships with. The producer parks and its consumer wakes it.
	WaitSleep WaitPolicy = iota
	// WaitBusy spins, yielding the processor between attempts — the
	// policy the paper originally used and then abandoned; kept for the
	// ablation study.
	WaitBusy
)

// String names the policy for reports.
func (p WaitPolicy) String() string {
	switch p {
	case WaitSleep:
		return "sleep"
	case WaitBusy:
		return "busy-wait"
	default:
		return fmt.Sprintf("WaitPolicy(%d)", int(p))
	}
}

// pad keeps the producer and consumer indices on distinct cache lines so
// the two sides do not false-share.
type pad [64]byte

// Queue is a bounded single-producer/single-consumer queue of T. Exactly
// one goroutine may call producer methods (TryPush, Push, PushBatch, Offer,
// Close) and exactly one may call consumer methods (TryPop, ConsumeBatch,
// DiscardBatch, Drained); the two may run concurrently. The zero value is
// not usable; call New.
//
// The struct is laid out so that everything the consumer writes (head, its
// tail cache, its counters) and everything the producer writes (tail, its
// head cache, its counters) live on separate cache-line-padded regions.
// The last region is read-mostly: done flips once, and the handshake
// fields change only when a side parks, the producer flushes, or the ring
// changes owner.
type Queue[T any] struct {
	buf    []T
	mask   uint64
	low    uint64 // a parked producer is woken once this few elements remain
	policy WaitPolicy

	_         pad
	head      atomic.Uint64 // next slot the consumer will read
	tailCache uint64        // consumer's snapshot of tail; <= tail always
	cons      consumerCounters
	_         pad
	tail      atomic.Uint64 // next slot the producer will write
	headCache uint64        // producer's snapshot of head; <= head always
	prod      producerCounters
	_         pad
	done      atomic.Bool          // producer has called Close
	mark      atomic.Uint64        // tail at the producer's last Flush
	gate      atomic.Pointer[Gate] // where this ring's consumer parks
	producer  parker               // where this ring's producer parks
	_         pad
}

// producerCounters are the stats fields only the producer writes.
type producerCounters struct {
	pushes      uint64
	failedPush  uint64
	spinRounds  uint64
	parkedNanos uint64
}

// consumerCounters are the stats fields only the consumer writes.
type consumerCounters struct {
	pops       uint64
	emptyPolls uint64
	shortPolls uint64
	batchCalls uint64
}

// Stats counts queue events; all fields are maintained by the owning sides
// without synchronization beyond the queue's own, so read them only after
// both sides have finished (or accept approximate values).
type Stats struct {
	Pushes      uint64 // elements successfully pushed
	FailedPush  uint64 // wait rounds in which a producer found the ring full, plus Offers refused
	SpinRounds  uint64 // busy-wait spin rounds executed (WaitBusy only)
	Pops        uint64 // elements consumed
	EmptyPolls  uint64 // consume attempts that found the ring empty
	ShortPolls  uint64 // unforced consume attempts that found fewer than a full batch
	BatchCalls  uint64 // functor invocations by ConsumeBatch
	SleepMicros uint64 // measured wall time the producer spent parked, in microseconds
}

// New returns a queue with at least the requested capacity (rounded up to
// the next power of two, as the index arithmetic requires). capacity must
// be positive.
func New[T any](capacity int, policy WaitPolicy) (*Queue[T], error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("spsc: capacity must be positive, got %d", capacity)
	}
	n := uint64(1)
	for n < uint64(capacity) {
		n <<= 1
	}
	return &Queue[T]{
		buf:      make([]T, n),
		mask:     n - 1,
		low:      n / 2,
		policy:   policy,
		producer: newParker(),
	}, nil
}

// MustNew is New that panics on invalid capacity; for tests and literals.
func MustNew[T any](capacity int, policy WaitPolicy) *Queue[T] {
	q, err := New[T](capacity, policy)
	if err != nil {
		panic(err)
	}
	return q
}

// Cap returns the usable capacity of the ring.
func (q *Queue[T]) Cap() int { return len(q.buf) }

// Len returns the number of buffered elements. It is exact only when the
// queue is quiescent; under concurrency it is a point-in-time snapshot,
// safe to call from any goroutine — this is the non-invasive depth probe
// the telemetry sampler uses for its queue-occupancy time-series.
//
// head is loaded before tail: head never passes tail, so a tail read
// *after* the head read is always >= the head value read, keeping the
// difference non-negative (the reverse order could go negative when the
// consumer advances between the two loads). The result is clamped to the
// capacity because the consumer may also advance head after we read it,
// inflating the stale difference.
func (q *Queue[T]) Len() int {
	h := q.head.Load()
	t := q.tail.Load()
	n := t - h
	if n > uint64(len(q.buf)) {
		n = uint64(len(q.buf))
	}
	return int(n)
}

// tryPush is the stat-free single-element fast path: it consults only the
// producer's cached head and refreshes the cache from the atomic index
// exactly when the ring appears full.
func (q *Queue[T]) tryPush(v T) bool {
	t := q.tail.Load()
	if t-q.headCache == uint64(len(q.buf)) {
		q.headCache = q.head.Load()
		if t-q.headCache == uint64(len(q.buf)) {
			return false
		}
	}
	q.buf[t&q.mask] = v
	q.tail.Store(t + 1)
	q.prod.pushes++
	q.published(t + 1)
	return true
}

// TryPush appends v if space is available, reporting success. Producer side.
func (q *Queue[T]) TryPush(v T) bool {
	if !q.tryPush(v) {
		q.prod.failedPush++
		return false
	}
	return true
}

// Push appends v, waiting for space according to the queue's WaitPolicy.
// Producer side. Push after Close panics: the producer owns Close, so this
// is always a caller bug.
func (q *Queue[T]) Push(v T) {
	if q.done.Load() {
		panic("spsc: Push after Close")
	}
	for !q.tryPush(v) {
		q.prod.failedPush++
		q.waitSpace()
	}
}

// tryPushBatch appends as many elements of vs as fit, publishing tail once,
// and returns how many were copied. The copy runs in at most two contiguous
// segments when the block wraps the ring. Producer side, stat-free on
// failure.
func (q *Queue[T]) tryPushBatch(vs []T) int {
	t := q.tail.Load()
	free := uint64(len(q.buf)) - (t - q.headCache)
	if free < uint64(len(vs)) {
		q.headCache = q.head.Load()
		free = uint64(len(q.buf)) - (t - q.headCache)
	}
	if free == 0 {
		return 0
	}
	n := uint64(len(vs))
	if n > free {
		n = free
	}
	start := t & q.mask
	run := uint64(len(q.buf)) - start
	if run > n {
		run = n
	}
	copy(q.buf[start:start+run], vs[:run])
	copy(q.buf[:n-run], vs[run:n])
	q.tail.Store(t + n)
	q.prod.pushes += n
	q.published(t + n)
	return int(n)
}

// PushBatch appends every element of vs in order, waiting for space
// according to the queue's WaitPolicy whenever the ring fills. The tail
// index is published once per contiguous block copied rather than once per
// element, so a block of b elements costs the consumer-visible store (and
// any cross-core traffic it triggers) 1/b times as often as b Push calls.
// Blocks larger than the ring are copied in capacity-sized chunks.
// Producer side; PushBatch after Close panics.
func (q *Queue[T]) PushBatch(vs []T) {
	if q.done.Load() {
		panic("spsc: PushBatch after Close")
	}
	for len(vs) > 0 {
		if n := q.tryPushBatch(vs); n > 0 {
			vs = vs[n:]
			continue
		}
		q.prod.failedPush++
		q.waitSpace()
	}
}

// Offer appends all of vs or nothing, and never waits: it is the push of a
// producer that has something better to do with a block the ring will not
// take than to park on it. A refusal counts one FailedPush, the same signal
// a waiting producer raises, and leaves a flush request behind: the producer
// is not going to top the ring up, so its consumer must not sit waiting for
// what is buffered to grow into a full batch. A block larger than the ring
// is always refused. Producer side; Offer after Close panics.
func (q *Queue[T]) Offer(vs []T) bool {
	if q.done.Load() {
		panic("spsc: Offer after Close")
	}
	n, size, t := uint64(len(vs)), uint64(len(q.buf)), q.tail.Load()
	if size-(t-q.headCache) < n {
		q.headCache = q.head.Load()
		if size-(t-q.headCache) < n {
			q.prod.failedPush++
			q.Flush()
			return false
		}
	}
	q.tryPushBatch(vs) // fits by the head cache, so all of vs goes in
	return true
}

// hasSpace refreshes the producer's head cache and reports whether at
// least one slot is free.
func (q *Queue[T]) hasSpace() bool {
	q.headCache = q.head.Load()
	return q.tail.Load()-q.headCache < uint64(len(q.buf))
}

// Close marks the end of the stream and wakes a parked consumer, which
// must force-drain the tail. Producer side; idempotent.
func (q *Queue[T]) Close() {
	q.done.Store(true)
	if g := q.gate.Load(); g != nil {
		g.wake()
	}
}

// Closed reports whether the producer has closed the queue. Elements may
// still be buffered; use Drained to test for full consumption.
func (q *Queue[T]) Closed() bool { return q.done.Load() }

// TryPop removes and returns the oldest element. Consumer side.
func (q *Queue[T]) TryPop() (T, bool) {
	var zero T
	h := q.head.Load()
	if h == q.tailCache {
		q.tailCache = q.tail.Load()
		if h == q.tailCache {
			q.cons.emptyPolls++
			return zero, false
		}
	}
	v := q.buf[h&q.mask]
	q.buf[h&q.mask] = zero // drop the reference for GC
	q.head.Store(h + 1)
	q.cons.pops++
	q.freed(h + 1)
	return v, true
}

// ConsumeBatch applies f to up to batch buffered elements and returns how
// many were consumed. Consumer side.
//
// Following §III-A/IV-C, the method only fires when at least batch
// elements are buffered — combiners wait for full blocks while mapping is
// in progress — unless force is set, in which case any remaining elements
// are consumed (the drain path after the map phase ends). The functor
// receives elements in ring slots, so a batch that wraps the ring arrives
// as two calls on the two contiguous runs; f must treat consecutive calls
// as a continuation.
func (q *Queue[T]) ConsumeBatch(batch int, force bool, f func([]T)) int {
	if batch <= 0 {
		batch = 1
	}
	h := q.head.Load()
	avail := q.tailCache - h
	if avail < uint64(batch) {
		q.tailCache = q.tail.Load()
		avail = q.tailCache - h
	}
	if avail == 0 {
		q.cons.emptyPolls++
		return 0
	}
	take := uint64(batch)
	if avail < take {
		if !force {
			// The consumer is giving up on this ring until more arrives,
			// so a producer parked above the low-water mark must not be
			// left waiting for a drain that is not coming.
			q.cons.shortPolls++
			q.producer.wake()
			return 0
		}
		take = avail
	}
	consumed := uint64(0)
	for consumed < take {
		start := (h + consumed) & q.mask
		run := take - consumed
		if room := uint64(len(q.buf)) - start; run > room {
			run = room
		}
		seg := q.buf[start : start+run]
		f(seg)
		q.cons.batchCalls++
		var zero T
		for i := range seg {
			seg[i] = zero
		}
		consumed += run
	}
	q.head.Store(h + consumed)
	q.cons.pops += consumed
	q.freed(h + consumed)
	return int(consumed)
}

// DiscardBatch removes up to batch buffered elements without invoking any
// functor and returns how many were dropped. It is the abort path's
// drain-and-discard primitive: once a run is doomed, consumers stop
// paying for user code but must keep emptying the ring so a producer
// parked on it is released. Dropped slots are zeroed for GC and
// counted as Pops, so the conservation invariant (Pushes == Pops on a
// drained queue) holds even for runs that die mid-pipeline. Consumer side.
func (q *Queue[T]) DiscardBatch(batch int) int {
	if batch <= 0 {
		batch = 1
	}
	h := q.head.Load()
	q.tailCache = q.tail.Load()
	avail := q.tailCache - h
	if avail == 0 {
		q.cons.emptyPolls++
		return 0
	}
	take := uint64(batch)
	if avail < take {
		take = avail
	}
	var zero T
	for i := uint64(0); i < take; i++ {
		q.buf[(h+i)&q.mask] = zero
	}
	q.head.Store(h + take)
	q.cons.pops += take
	q.freed(h + take)
	return int(take)
}

// Drained reports whether the producer closed the queue and every element
// has been consumed — the combiner exit condition.
func (q *Queue[T]) Drained() bool {
	return q.done.Load() && q.head.Load() == q.tail.Load()
}

// ConsumerStats returns the consumer-owned counter subset: cumulative
// pops, empty polls, unforced short polls and batch functor calls. Like
// ProducerStats this is safe only from the owning (consumer) goroutine
// while the queue is live; it is how the combiners mirror consumer-side
// rates into the telemetry layer mid-run.
func (q *Queue[T]) ConsumerStats() (pops, emptyPolls, shortPolls, batchCalls uint64) {
	return q.cons.pops, q.cons.emptyPolls, q.cons.shortPolls, q.cons.batchCalls
}

// ProducerStats returns the producer-owned counter subset. Unlike
// Snapshot, which reads both sides and therefore requires a quiescent
// queue, this is safe to call from the producer goroutine at any time —
// it is how the engines mirror failed-push and parked-time totals into the
// telemetry layer while the consumer is still running.
func (q *Queue[T]) ProducerStats() (pushes, failedPush, sleepMicros uint64) {
	return q.prod.pushes, q.prod.failedPush, q.prod.parkedNanos / 1000
}

// Snapshot returns a copy of the event counters.
func (q *Queue[T]) Snapshot() Stats {
	return Stats{
		Pushes:      q.prod.pushes,
		FailedPush:  q.prod.failedPush,
		SpinRounds:  q.prod.spinRounds,
		Pops:        q.cons.pops,
		EmptyPolls:  q.cons.emptyPolls,
		ShortPolls:  q.cons.shortPolls,
		BatchCalls:  q.cons.batchCalls,
		SleepMicros: q.prod.parkedNanos / 1000,
	}
}
