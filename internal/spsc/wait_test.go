package spsc

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// The handshake tests run every scenario at GOMAXPROCS 1 and 2: with one
// processor the two sides only ever interleave at yields and parks, with
// two they truly overlap; the protocol must hold under both.
func atProcs(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f(t)
		})
	}
}

// until polls cond, yielding, and fails the test if it does not hold in
// time. Tests wait on the parked flags themselves, never on a sleep.
func until(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// released fails the test unless done closes in time.
func released(t *testing.T, what string, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s was not released", what)
	}
}

// gated returns a ring of the given capacity and the gate its pushes wake.
func gated[T any](capacity int) (*Queue[T], *Gate) {
	q, g := MustNew[T](capacity, WaitSleep), NewGate()
	q.SetGate(g)
	return q, g
}

// parkConsumer starts a goroutine that parks on g over q with the given
// need and stop, and returns once it is parked; done closes when Park
// returns.
func parkConsumer(t *testing.T, g *Gate, q *Queue[int], need int, stop func() bool) <-chan struct{} {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		Park(g, []*Queue[int]{q}, need, stop)
	}()
	until(t, "consumer to park", g.armed.Load)
	return done
}

// parkProducer fills q, then starts a goroutine whose one-element push must
// park; done closes when that push returns.
func parkProducer(t *testing.T, q *Queue[int]) <-chan struct{} {
	t.Helper()
	for i := 0; i < q.Cap(); i++ {
		if !offer(q, i) {
			t.Fatalf("fill: push %d of %d failed", i, q.Cap())
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		push(q, q.Cap())
	}()
	until(t, "producer to park", q.producer.armed.Load)
	return done
}

func TestParkedConsumerWokenByBatchWorthPush(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		q, g := gated[int](16)
		done := parkConsumer(t, g, q, 8, nil)
		q.PushBatch([]int{1, 2, 3, 4, 5, 6, 7})
		// The wake decision is taken inside PushBatch, so this is not a
		// race: seven of the eight it asked for must leave it parked.
		if !g.armed.Load() {
			t.Fatal("consumer woken by a push short of its batch")
		}
		push(q, 8)
		released(t, "consumer", done)
	})
}

func TestParkedConsumerWokenByCloseWithShortTail(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		q, g := gated[int](16)
		done := parkConsumer(t, g, q, 8, nil)
		q.PushBatch([]int{1, 2, 3})
		if !g.armed.Load() {
			t.Fatal("consumer woken by a short tail before Close")
		}
		q.Close()
		released(t, "consumer", done)
		if n := q.ConsumeBatch(8, q.Closed(), func([]int) {}); n != 3 || !q.Drained() {
			t.Fatalf("force-drain after Close consumed %d, drained=%v", n, q.Drained())
		}
	})
}

func TestParkedConsumerWokenByAbort(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		q, g := gated[int](16)
		var abort atomic.Bool
		done := parkConsumer(t, g, q, 8, abort.Load)
		abort.Store(true)
		g.Wake()
		released(t, "consumer", done)

		// The other order — abort raised before the consumer arms — must
		// be caught by Park's own re-check, with no Wake at all.
		done2 := make(chan struct{})
		go func() {
			defer close(done2)
			Park(g, []*Queue[int]{q}, 8, abort.Load)
		}()
		released(t, "consumer arriving after the abort", done2)
		if g.armed.Load() {
			t.Fatal("gate left armed after Park returned")
		}
	})
}

func TestParkedConsumerWokenByFlushWithShortTail(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		// Stream mode: the resident producer ends a task with less than a
		// batch in the ring. Flush must bring the consumer back to fold
		// that tail.
		q, g := gated[int](16)
		for chunk := 0; chunk < 3; chunk++ {
			done := parkConsumer(t, g, q, 8, nil)
			q.PushBatch([]int{1, 2, 3})
			if !g.armed.Load() || q.Flushing() {
				t.Fatalf("chunk %d: short push woke the consumer (flushing=%v)", chunk, q.Flushing())
			}
			q.Flush()
			released(t, "consumer", done)
			if n := q.ConsumeBatch(8, q.Flushing(), func([]int) {}); n != 3 || q.Flushing() {
				t.Fatalf("chunk %d: consumed %d of the flushed tail, want 3 (flushing=%v)", chunk, n, q.Flushing())
			}
		}
		// Flushing an empty ring is not news: there is nothing to fold.
		done := parkConsumer(t, g, q, 8, nil)
		q.Flush()
		if !g.armed.Load() {
			t.Fatal("flush of an empty ring woke the consumer")
		}
		q.Close()
		released(t, "consumer", done)
	})
}

func TestParkedConsumerWokenByRefusedOffer(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		// A producer that folds what its ring refuses never tops the ring
		// up: a slab that does not fit beside a short tail leaves that tail
		// short for good. The refusal itself must bring the consumer back
		// for it — otherwise the consumer sleeps out the run on a ring that
		// is never full and never empty, and the pipeline runs on one side.
		q, g := gated[int](8)
		done := parkConsumer(t, g, q, 8, nil)
		if !q.Offer([]int{1, 2, 3}) || !g.armed.Load() {
			t.Fatal("an offer that fits was refused, or its short tail woke the consumer")
		}
		if q.Offer([]int{4, 5, 6, 7, 8, 9}) {
			t.Fatal("six elements went into five free slots")
		}
		released(t, "consumer", done)
		if n := q.ConsumeBatch(8, q.Flushing(), func([]int) {}); n != 3 {
			t.Fatalf("consumed %d of the tail the refused offer left, want 3", n)
		}
		if s := q.Snapshot(); s.Pushes != 3 || s.FailedPush != 1 {
			t.Fatalf("counters %+v, want 3 pushed and the refusal as one failed push", s)
		}
	})
}

func TestParkedConsumerFlushSurvivesTheNextPush(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		// A producer kept fed pushes the head of its next task before the
		// woken consumer gets to look. The flushed tail must still be
		// folded, along with whatever arrived behind it, and a consumer
		// that parks only afterwards must not sleep on it either.
		q, g := gated[int](16)
		done := parkConsumer(t, g, q, 8, nil)
		q.PushBatch([]int{1, 2, 3})
		q.Flush()
		push(q, 4)
		released(t, "consumer", done)
		late := make(chan struct{})
		go func() {
			defer close(late)
			Park(g, []*Queue[int]{q}, 8, nil)
		}()
		released(t, "consumer parking after the flush", late)
		if n := q.ConsumeBatch(8, q.Flushing(), func([]int) {}); n != 4 || q.Flushing() {
			t.Fatalf("consumed %d behind a flush mark at 3, want 4 (flushing=%v)", n, q.Flushing())
		}
		// What comes after the mark waits for a batch again.
		q.PushBatch([]int{5, 6})
		if n := q.ConsumeBatch(8, q.Flushing(), func([]int) {}); n != 0 {
			t.Fatalf("consumed %d unflushed elements short of a batch", n)
		}
	})
}

func TestParkedProducerWokenAtLowWater(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		q := MustNew[int](8, WaitSleep) // low-water mark 4
		done := parkProducer(t, q)
		q.ConsumeBatch(2, true, func([]int) {}) // 6 left
		if !q.producer.armed.Load() {
			t.Fatal("producer woken above the low-water mark")
		}
		q.ConsumeBatch(2, true, func([]int) {}) // 4 left
		released(t, "producer", done)
		if s := q.Snapshot(); s.Pushes != 9 || s.FailedPush == 0 {
			t.Fatalf("stats after a parked push: %+v", s)
		}
	})
}

func TestParkedProducerWokenByConsumerGoingIdle(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		q := MustNew[int](8, WaitSleep)
		done := parkProducer(t, q)
		q.ConsumeBatch(2, true, func([]int) {}) // 6 left: above low water
		// An unforced poll for more than the ring holds is the consumer
		// giving up on it; the producer must not be left parked.
		if n := q.ConsumeBatch(7, false, func([]int) {}); n != 0 {
			t.Fatalf("short poll consumed %d", n)
		}
		released(t, "producer", done)
	})
}

func TestParkedProducerReleasedByDrainDiscard(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		q, g := gated[int](8)
		pushed := parkProducer(t, q)
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			DrainDiscard(g, []*Queue[int]{q}, 3)
		}()
		released(t, "producer", pushed)
		// The discarding consumer now waits, parked, for the ring to
		// close; Close must bring it back to finish.
		q.Close()
		released(t, "discarding consumer", drained)
		if s := q.Snapshot(); s.Pushes != 9 || s.Pops != 9 || !q.Drained() {
			t.Fatalf("conservation after abort drain: %+v drained=%v", s, q.Drained())
		}
	})
}

func TestParkWakeFollowsRingOwnership(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		// A ring handed from consumer A to consumer B while its
		// producer is parked on it: B's drain must release the
		// producer, and from the hand-over on pushes wake B's gate and
		// leave A's alone — whether or not B has parked yet.
		q, gA := gated[int](8)
		gB := NewGate()
		pushed := parkProducer(t, q)
		doneA := parkConsumer(t, gA, MustNew[int](8, WaitSleep), 2, nil) // A idles, owning nothing hot
		q.SetGate(gB)
		q.ConsumeBatch(8, true, func([]int) {})
		released(t, "producer", pushed)
		q.ConsumeBatch(8, true, func([]int) {})
		q.PushBatch([]int{1, 2}) // B is busy elsewhere: nobody to wake
		if !gA.armed.Load() {
			t.Fatal("push woke the previous owner's gate")
		}
		q.ConsumeBatch(8, true, func([]int) {})

		doneB := parkConsumer(t, gB, q, 2, nil)
		q.PushBatch([]int{3, 4})
		released(t, "new owner", doneB)
		if !gA.armed.Load() {
			t.Fatal("push woke the previous owner's gate")
		}
		gA.Wake()
		released(t, "previous owner", doneA)
	})
}

func TestSleepMicrosIsMeasuredParkTime(t *testing.T) {
	q := MustNew[int](8, WaitSleep)
	done := parkProducer(t, q)
	time.Sleep(20 * time.Millisecond)
	q.ConsumeBatch(8, true, func([]int) {})
	released(t, "producer", done)
	if us := q.Snapshot().SleepMicros; us < 10_000 {
		t.Fatalf("SleepMicros = %d after a >= 20 ms park", us)
	}
	if _, _, us := q.ProducerStats(); us != q.Snapshot().SleepMicros {
		t.Fatalf("ProducerStats sleep %d != Snapshot %d", us, q.Snapshot().SleepMicros)
	}
}

// BenchmarkHandoffLatency times one element pushed to a parked consumer
// until the consumer's functor runs — the park/wake cost the handoff pays
// where it used to pay a timer sleep — next to what time.Sleep really
// costs on this host for the two durations the old waits asked for.
func BenchmarkHandoffLatency(b *testing.B) {
	b.Run("park-wake", func(b *testing.B) {
		q, g := gated[int64](16)
		var total int64
		ack := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			qs := []*Queue[int64]{q}
			fold := func(seg []int64) {
				total += time.Now().UnixNano() - seg[0]
				ack <- struct{}{}
			}
			for !q.Drained() {
				if q.ConsumeBatch(1, true, fold) == 0 {
					Park(g, qs, 1, nil)
				}
			}
		}()
		for i := 0; i < b.N; i++ {
			for !g.armed.Load() {
				runtime.Gosched()
			}
			// Let the parked consumer's thread stop spinning for work and
			// go to sleep, as it has in a run whose combiner idles: the
			// number wanted is the cold wake-up, futex included.
			for t0 := time.Now(); time.Since(t0) < 100*time.Microsecond; {
			}
			push(q, time.Now().UnixNano())
			<-ack
		}
		q.Close()
		<-done
		b.ReportMetric(float64(total)/float64(b.N), "ns/handoff")
	})
	for _, d := range []time.Duration{time.Microsecond, 20 * time.Microsecond} {
		b.Run("time.Sleep("+d.String()+")", func(b *testing.B) {
			var total time.Duration
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				time.Sleep(d)
				total += time.Since(t0)
			}
			b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "ns/handoff")
		})
	}
}
