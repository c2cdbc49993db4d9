package spsc

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// push appends one element, parking while the ring is full: a one-element
// PushBatch.
func push[T any](q *Queue[T], v T) { q.PushBatch([]T{v}) }

// offer appends one element if the ring has room for it: a one-element
// Offer.
func offer[T any](q *Queue[T], v T) bool { return q.Offer([]T{v}) }

// pop removes the oldest element, if there is one: a forced one-element
// ConsumeBatch.
func pop[T any](q *Queue[T]) (v T, ok bool) {
	ok = q.ConsumeBatch(1, true, func(seg []T) { v = seg[0] }) == 1
	return v, ok
}

func TestNewValidation(t *testing.T) {
	if _, err := New[int](0, WaitSleep); err == nil {
		t.Fatal("capacity 0 should be rejected")
	}
	if _, err := New[int](-5, WaitSleep); err == nil {
		t.Fatal("negative capacity should be rejected")
	}
	q, err := New[int](100, WaitSleep)
	if err != nil {
		t.Fatal(err)
	}
	if q.Cap() != 128 {
		t.Fatalf("capacity 100 should round to 128, got %d", q.Cap())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(0) should panic")
		}
	}()
	MustNew[int](0, WaitSleep)
}

func TestFIFOSequential(t *testing.T) {
	q := MustNew[int](8, WaitSleep)
	for i := 0; i < 8; i++ {
		if !offer(q, i) {
			t.Fatalf("push %d failed on non-full ring", i)
		}
	}
	if offer(q, 99) {
		t.Fatal("push succeeded on full ring")
	}
	if q.Len() != 8 {
		t.Fatalf("Len = %d, want 8", q.Len())
	}
	for i := 0; i < 8; i++ {
		v, ok := pop(q)
		if !ok || v != i {
			t.Fatalf("pop %d: got (%d,%v)", i, v, ok)
		}
	}
	if _, ok := pop(q); ok {
		t.Fatal("pop succeeded on empty ring")
	}
}

func TestWrapAround(t *testing.T) {
	q := MustNew[int](4, WaitSleep)
	next := 0
	for round := 0; round < 100; round++ {
		for i := 0; i < 3; i++ {
			push(q, next+i)
		}
		for i := 0; i < 3; i++ {
			v, ok := pop(q)
			if !ok || v != next+i {
				t.Fatalf("round %d: got (%d,%v), want %d", round, v, ok, next+i)
			}
		}
		next += 3
	}
}

func TestCloseAndDrain(t *testing.T) {
	q := MustNew[int](8, WaitSleep)
	push(q, 1)
	push(q, 2)
	q.Close()
	if !q.Closed() {
		t.Fatal("Closed() false after Close")
	}
	if q.Drained() {
		t.Fatal("Drained() true with buffered elements")
	}
	pop(q)
	pop(q)
	if !q.Drained() {
		t.Fatal("Drained() false after consuming everything")
	}
}

func TestPushAfterClosePanics(t *testing.T) {
	q := MustNew[int](8, WaitSleep)
	q.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Offer after Close should panic")
		}
	}()
	offer(q, 1)
}

func TestConsumeBatchWaitsForFullBlocks(t *testing.T) {
	q := MustNew[int](16, WaitSleep)
	for i := 0; i < 5; i++ {
		push(q, i)
	}
	// Not forced and fewer than batch elements: nothing consumed.
	if n := q.ConsumeBatch(8, false, func([]int) {}); n != 0 {
		t.Fatalf("consumed %d, want 0 (batch not full)", n)
	}
	// Forced: the remainder drains.
	var got []int
	if n := q.ConsumeBatch(8, true, func(b []int) { got = append(got, b...) }); n != 5 {
		t.Fatalf("forced consume = %d, want 5", n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestConsumeBatchWrapsInOrder(t *testing.T) {
	q := MustNew[int](8, WaitSleep)
	// Advance the ring so a batch spans the wrap point.
	for i := 0; i < 6; i++ {
		push(q, i)
		pop(q)
	}
	for i := 0; i < 8; i++ {
		push(q, 100+i)
	}
	var got []int
	n := q.ConsumeBatch(8, false, func(b []int) { got = append(got, b...) })
	if n != 8 {
		t.Fatalf("consumed %d, want 8", n)
	}
	for i, v := range got {
		if v != 100+i {
			t.Fatalf("wrap order broken: got[%d]=%d want %d", i, v, 100+i)
		}
	}
}

func TestConsumeBatchZeroOrNegativeBatch(t *testing.T) {
	q := MustNew[int](8, WaitSleep)
	push(q, 7)
	var got []int
	if n := q.ConsumeBatch(0, false, func(b []int) { got = append(got, b...) }); n != 1 {
		t.Fatalf("batch=0 should behave as 1; consumed %d", n)
	}
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("got %v", got)
	}
}

// TestConcurrentNoLossNoDup is the core SPSC safety property: a concurrent
// producer/consumer pair sees every element exactly once, in order.
func TestConcurrentNoLossNoDup(t *testing.T) {
	for _, batch := range []int{1, 7, 64} {
		q := MustNew[int](64, WaitSleep)
		// Modest on purpose: this runs on 1-CPU CI hosts where a
		// blocked producer only progresses on scheduler yields.
		const n = 8_000
		var wg sync.WaitGroup
		wg.Add(1)
		errs := make(chan string, 1)
		go func() {
			defer wg.Done()
			expect := 0
			for !q.Drained() {
				consumed := q.ConsumeBatch(batch, q.Closed(), func(b []int) {
					for _, v := range b {
						if v != expect {
							select {
							case errs <- "out of order":
							default:
							}
						}
						expect++
					}
				})
				if consumed == 0 {
					runtime.Gosched()
				}
			}
			if expect != n {
				select {
				case errs <- "lost elements":
				default:
				}
			}
		}()
		for i := 0; i < n; i++ {
			push(q, i)
		}
		q.Close()
		wg.Wait()
		select {
		case msg := <-errs:
			t.Fatalf("batch=%d: %s", batch, msg)
		default:
		}
		s := q.Snapshot()
		if s.Pushes != n || s.Pops != n {
			t.Fatalf("stats: pushes=%d pops=%d want %d", s.Pushes, s.Pops, n)
		}
	}
}

// TestQuickPushPopRoundTrip drives random push/pop interleavings through
// the ring and checks FIFO semantics against a slice model.
func TestQuickPushPopRoundTrip(t *testing.T) {
	f := func(ops []bool, vals []uint16) bool {
		q := MustNew[uint16](16, WaitSleep)
		var model []uint16
		vi := 0
		for _, push := range ops {
			if push {
				if vi >= len(vals) {
					break
				}
				if offer(q, vals[vi]) {
					model = append(model, vals[vi])
				} else if len(model) != q.Cap() {
					return false // push failed but ring not full
				}
				vi++
			} else {
				v, ok := pop(q)
				if ok {
					if len(model) == 0 || model[0] != v {
						return false
					}
					model = model[1:]
				} else if len(model) != 0 {
					return false // pop failed but model non-empty
				}
			}
		}
		return q.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestGCReferencesDropped verifies consumed slots do not retain pointers.
func TestGCReferencesDropped(t *testing.T) {
	q := MustNew[*int](4, WaitSleep)
	v := new(int)
	push(q, v)
	pop(q)
	// The slot should be zeroed; push/pop again and inspect via Len only
	// (the real check is that the buffer slot is nil — peek internally).
	if q.buf[0] != nil {
		t.Fatal("consumed slot still holds a reference")
	}
}

func TestBlockingPushUnblocks(t *testing.T) {
	q := MustNew[int](2, WaitSleep)
	push(q, 1)
	push(q, 2)
	done := make(chan struct{})
	go func() {
		push(q, 3) // parks until the consumer frees a slot
		close(done)
	}()
	runtime.Gosched()
	if _, ok := pop(q); !ok {
		t.Fatal("pop failed")
	}
	<-done
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
}

func TestPushBatchSequential(t *testing.T) {
	q := MustNew[int](8, WaitSleep)
	q.PushBatch([]int{0, 1, 2})
	q.PushBatch(nil) // empty block is a no-op
	q.PushBatch([]int{3, 4})
	for i := 0; i < 5; i++ {
		v, ok := pop(q)
		if !ok || v != i {
			t.Fatalf("pop %d: got (%d,%v)", i, v, ok)
		}
	}
	s := q.Snapshot()
	if s.Pushes != 5 || s.Pops != 5 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestPushBatchWrapsInOrder(t *testing.T) {
	q := MustNew[int](8, WaitSleep)
	// Advance the indices so the next block spans the wrap point and
	// exercises the two-run copy.
	for i := 0; i < 6; i++ {
		push(q, i)
		pop(q)
	}
	block := []int{100, 101, 102, 103, 104, 105, 106, 107}
	q.PushBatch(block)
	var got []int
	if n := q.ConsumeBatch(8, false, func(b []int) { got = append(got, b...) }); n != 8 {
		t.Fatalf("consumed %d, want 8", n)
	}
	for i, v := range got {
		if v != block[i] {
			t.Fatalf("wrap order broken: got[%d]=%d want %d", i, v, block[i])
		}
	}
}

// TestPushBatchLargerThanRing drives a block bigger than the capacity; the
// producer must chunk it while a concurrent consumer makes room.
func TestPushBatchLargerThanRing(t *testing.T) {
	q := MustNew[int](4, WaitSleep)
	block := make([]int, 37)
	for i := range block {
		block[i] = i
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		expect := 0
		for !q.Drained() {
			consumed := q.ConsumeBatch(3, q.Closed(), func(b []int) {
				for _, v := range b {
					if v != expect {
						t.Errorf("got %d, want %d", v, expect)
					}
					expect++
				}
			})
			if consumed == 0 {
				runtime.Gosched()
			}
		}
		if expect != len(block) {
			t.Errorf("consumed %d elements, want %d", expect, len(block))
		}
	}()
	q.PushBatch(block)
	q.Close()
	<-done
}

func TestPushBatchAfterClosePanics(t *testing.T) {
	q := MustNew[int](8, WaitSleep)
	q.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("PushBatch after Close should panic")
		}
	}()
	q.PushBatch([]int{1})
}

// TestShortPollsSeparatedFromEmptyPolls pins the satellite fix: a poll of a
// non-empty ring holding less than a full batch counts as short, not empty.
func TestShortPollsSeparatedFromEmptyPolls(t *testing.T) {
	q := MustNew[int](16, WaitSleep)
	if q.ConsumeBatch(4, false, func([]int) {}) != 0 {
		t.Fatal("consumed from empty ring")
	}
	push(q, 1)
	push(q, 2)
	if q.ConsumeBatch(4, false, func([]int) {}) != 0 {
		t.Fatal("unforced consume fired below a full batch")
	}
	s := q.Snapshot()
	if s.EmptyPolls != 1 || s.ShortPolls != 1 {
		t.Fatalf("EmptyPolls=%d ShortPolls=%d, want 1 and 1", s.EmptyPolls, s.ShortPolls)
	}
	// A single pop of an empty ring also counts an empty poll.
	q.ConsumeBatch(2, true, func([]int) {})
	if _, ok := pop(q); ok {
		t.Fatal("pop from drained ring")
	}
	if s := q.Snapshot(); s.EmptyPolls != 2 || s.ShortPolls != 1 {
		t.Fatalf("after drain: EmptyPolls=%d ShortPolls=%d, want 2 and 1", s.EmptyPolls, s.ShortPolls)
	}
}

// TestCachedIndexStaleness forces maximal cache staleness: the producer
// fills the ring completely (so its head cache is refreshed exactly at the
// full boundary) and the consumer drains it completely (tail cache
// refreshed at the empty boundary), repeatedly, checking FIFO order.
func TestCachedIndexStaleness(t *testing.T) {
	q := MustNew[int](4, WaitSleep)
	next, expect := 0, 0
	for round := 0; round < 50; round++ {
		for offer(q, next) {
			next++
		}
		if q.Len() != q.Cap() {
			t.Fatalf("round %d: ring not full after a run of single offers", round)
		}
		for {
			v, ok := pop(q)
			if !ok {
				break
			}
			if v != expect {
				t.Fatalf("round %d: got %d, want %d", round, v, expect)
			}
			expect++
		}
		if next != expect {
			t.Fatalf("round %d: drained %d of %d", round, expect, next)
		}
	}
}

// TestDiscardBatch pins the abort path's release valve: DiscardBatch frees
// ring slots without a functor, zeroes the vacated slots for GC, and keeps
// element conservation (Pops counts discarded elements like consumed ones).
func TestDiscardBatch(t *testing.T) {
	q := MustNew[*int](8, WaitSleep)
	for i := 0; i < 6; i++ {
		v := i
		push(q, &v)
	}
	if n := q.DiscardBatch(4); n != 4 {
		t.Fatalf("discarded %d, want 4", n)
	}
	if n := q.DiscardBatch(4); n != 2 {
		t.Fatalf("discarded %d of the tail, want 2", n)
	}
	if n := q.DiscardBatch(4); n != 0 {
		t.Fatalf("discarded %d from empty ring, want 0", n)
	}
	s := q.Snapshot()
	if s.Pushes != 6 || s.Pops != 6 {
		t.Fatalf("conservation broken: %+v", s)
	}
	if s.EmptyPolls == 0 {
		t.Fatal("empty discard not counted as an empty poll")
	}
	// Vacated slots must not pin the discarded values.
	for i := range q.buf {
		if q.buf[i] != nil {
			t.Fatalf("slot %d still references a discarded element", i)
		}
	}
	q.Close()
	if !q.Drained() {
		t.Fatal("queue not drained after discarding everything")
	}
}

// TestDiscardBatchUnblocksProducer shows DiscardBatch freeing a producer
// blocked on a full ring — the reason the abort path can discard instead of
// combine without wedging the pipeline.
func TestDiscardBatchUnblocksProducer(t *testing.T) {
	q := MustNew[int](4, WaitSleep)
	for i := 0; i < 4; i++ {
		push(q, i)
	}
	done := make(chan struct{})
	go func() {
		push(q, 99) // blocks until a slot frees
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("push completed on a full ring")
	case <-time.After(10 * time.Millisecond):
	}
	for q.DiscardBatch(2) == 0 {
		runtime.Gosched()
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("blocked producer not released by DiscardBatch")
	}
}
