package spsc

import (
	"runtime"
	"sync/atomic"
	"time"
)

// This file is the only place either side of a ring waits. Both sides use
// the same cell: the waiter sets a flag, re-checks its condition, and
// blocks; whoever changes that condition afterwards loads the flag and, if
// it is set, claims it and sends the wake-up. sync/atomic operations are
// sequentially consistent, so of the waiter's "store flag, load state" and
// the waker's "store state, load flag" at least one load sees the other
// side's store: a wake-up is never lost. While nobody waits, the cost is
// that one load of a flag nobody writes.

// yields is how many times a waiter yields the processor and looks again
// before it parks. A few cover the common case of the other side being
// runnable on this very processor; more is a spin, which costs a host
// shared with other processes (Gosched does not yield across them) more
// than the park it saves.
const yields = 4

// parker is a park/wake cell for one waiter. The flag is claimed by
// compare-and-swap, so every wait ends in exactly one of two ways — the
// waiter withdraws, or one waker sends one token — and the one-slot
// channel can neither block a waker nor carry a stale token into the next
// wait.
type parker struct {
	armed atomic.Bool
	ch    chan struct{}
}

func newParker() parker { return parker{ch: make(chan struct{}, 1)} }

// wait blocks the waiter, which has stored armed and then evaluated ready.
// A ready waiter withdraws; if a waker beat it to the flag, that waker's
// token is on its way and is taken here.
func (p *parker) wait(ready bool) {
	if ready && p.armed.CompareAndSwap(true, false) {
		return
	}
	<-p.ch
}

// wake releases the waiter if one is armed. Safe from any goroutine.
func (p *parker) wake() {
	if p.armed.Load() && p.armed.CompareAndSwap(true, false) {
		p.ch <- struct{}{}
	}
}

// Gate is where a consumer parks when none of the rings it owns has work
// for it: one gate per consumer, shared by all its rings (SetGate), so
// going idle costs one flag store however many rings it serves. A push
// that completes a batch, a Close, a Flush, or Wake releases it.
type Gate struct {
	parker
	need atomic.Int64 // elements one ring must hold to be worth a wake-up
}

// NewGate returns a gate for one consumer goroutine.
func NewGate() *Gate { return &Gate{parker: newParker()} }

// Wake releases the consumer parked on g, if any, so that it re-evaluates
// the stop condition it passed to Park. Safe from any goroutine: it is how
// an abort, or a change of ring ownership, reaches a parked consumer.
func (g *Gate) Wake() { g.wake() }

// Park is what a consumer calls when a polling round over qs consumed
// nothing. It returns once some ring in qs is closed, holds at least need
// elements, or holds anything its producer flushed — or stop reports true
// (stop may be nil). qs must hold only rings the caller owns (their gate
// is g) and saw undrained on that round; need is the caller's consume
// batch, or 1 when it will force short consumes. Returning is a hint to
// poll again, not a promise of work.
func Park[T any](g *Gate, qs []*Queue[T], need int, stop func() bool) {
	ready := func() bool {
		if stop != nil && stop() {
			return true
		}
		for _, q := range qs {
			if q.done.Load() || q.wakeWorthy(q.tail.Load(), need) {
				return true
			}
		}
		return false
	}
	for i := 0; i < yields; i++ {
		runtime.Gosched()
		if ready() {
			return
		}
	}
	g.need.Store(int64(need))
	g.armed.Store(true)
	g.wait(ready())
}

// SetGate makes g the gate this ring's pushes, Flush and Close wake. The
// ring's owner calls it before the consumer first polls, and again — with
// no consumer mid-round on the ring — whenever the ring changes consumer,
// so that wake-ups follow ownership instead of disturbing the old owner.
func (q *Queue[T]) SetGate(g *Gate) { q.gate.Store(g) }

// wakeWorthy reports whether a ring whose tail is t holds what a consumer
// asking for need elements can act on: a full batch (bounded by what the
// ring can ever hold), or anything at all below the flush mark.
func (q *Queue[T]) wakeWorthy(t uint64, need int) bool {
	h := q.head.Load()
	return t-h >= min(uint64(max(need, 1)), uint64(len(q.buf))) || h < q.mark.Load()
}

// published runs after the producer stored tail t (or moved the flush
// mark up to it): a parked consumer is woken if this ring now holds what
// it asked for.
func (q *Queue[T]) published(t uint64) {
	if g := q.gate.Load(); g != nil && g.armed.Load() && q.wakeWorthy(t, int(g.need.Load())) {
		g.wake()
	}
}

// Flush asks the consumer to fold everything pushed so far without waiting
// for it to grow into a full batch. A resident producer calls it where a
// tail left in the ring would hold something up — the stream mapper after
// each task, whose pane cannot seal until its last pair is folded; a
// consumer honours it by passing Flushing as ConsumeBatch's force. The mark
// only moves forward and later pushes do not cancel it, so a request is
// never lost to a producer that is quick to push again. Producer side.
func (q *Queue[T]) Flush() {
	t := q.tail.Load()
	q.mark.Store(t)
	q.published(t)
}

// Flushing reports whether the ring still holds elements pushed before the
// producer's last Flush. Consumer side.
func (q *Queue[T]) Flushing() bool { return q.head.Load() < q.mark.Load() }

// freed runs after the consumer stored head h: a parked producer is woken
// once the ring has drained to the low-water mark — half the ring, not the
// first free slot, so a fast producer is woken once per half ring instead
// of once per consumed batch.
func (q *Queue[T]) freed(h uint64) {
	if q.producer.armed.Load() && q.tail.Load()-h <= q.low {
		q.producer.wake()
	}
}

// waitSpace blocks the producer until the ring may have a free slot;
// callers retry and call again on failure. It yields a few times, then
// parks until its consumer drains the ring to the low-water mark or goes
// idle. Each look that still found the ring full counts one FailedPush
// (the caller records the initial failure), and the parked wall time is
// measured.
func (q *Queue[T]) waitSpace() {
	for i := 0; i < yields; i++ {
		runtime.Gosched()
		if q.hasSpace() {
			return
		}
		q.prod.failedPush++
	}
	t0 := time.Now()
	q.producer.armed.Store(true)
	q.producer.wait(q.hasSpace())
	q.prod.parkedNanos += uint64(time.Since(t0))
}

// DrainDiscard empties every ring in qs without touching user code until
// all are closed and drained. It is the abort path's release valve: a
// producer parked on a full ring is freed only by its consumer, so a
// doomed consumer must keep popping — and discarding — until every one of
// its producers has finished its in-flight task and closed.
func DrainDiscard[T any](g *Gate, qs []*Queue[T], batch int) {
	qs = append([]*Queue[T](nil), qs...) // compacted below; the caller's stays intact
	for {
		live, dropped := qs[:0], 0
		for _, q := range qs {
			if !q.Drained() {
				live = append(live, q)
				dropped += q.DiscardBatch(batch)
			}
		}
		qs = live
		if len(qs) == 0 {
			return
		}
		if dropped == 0 {
			Park(g, qs, 1, nil)
		}
	}
}
