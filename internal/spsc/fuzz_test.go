package spsc

import (
	"testing"
)

// FuzzSPSC drives a small ring with an arbitrary operation sequence and
// checks it twice: single-threaded against a slice model after every
// operation (values, order, Len/Closed/Drained, counters), then with the
// same operations split across a real producer and a real consumer that
// block, park and wake each other, where whatever the interleaving the
// consumer must see exactly the pushed sequence. Byte 0 picks the
// capacity; each following pair is (operation, argument).
// numOps is how many operations the fuzz bytes select among: 0 TryPush,
// 1 PushBatch, 2 TryPop, 3 ConsumeBatch, 4 forced ConsumeBatch,
// 5 DiscardBatch, 6 Close, 7 Flush, 8 Offer.
const numOps = 9

func FuzzSPSC(f *testing.F) {
	f.Add([]byte{2, 0, 7, 1, 3, 3, 2, 4, 2, 6, 0})                      // push, batch, short poll, forced drain, close
	f.Add([]byte{0, 0, 1, 0, 2, 2, 0, 0, 3, 5, 1, 6, 0})                // capacity-1 ring: every push fills it
	f.Add([]byte{3, 1, 8, 1, 8, 5, 3, 1, 8, 3, 4, 4, 4, 2, 0, 6, 0})    // wrap-around batches with discards
	f.Add([]byte{1, 1, 2, 6, 0, 0, 9, 1, 2, 4, 1, 4, 1})                // operations after close
	f.Add([]byte{2, 1, 200, 1, 200, 3, 4, 1, 200, 5, 2, 4, 3, 1, 9, 6}) // blocks far larger than the ring
	f.Add([]byte{3, 1, 3, 7, 0, 3, 4, 1, 2, 7, 0, 7, 0, 3, 4, 0, 0})    // flushes: a short tail, an empty ring, a push behind the mark
	f.Add([]byte{2, 8, 3, 8, 3, 3, 4, 8, 9, 8, 0, 4, 4, 8, 2, 6, 0})    // offers: one that fits, one refused short of a batch, one larger than the ring, an empty one
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 || len(data) > 512 {
			return
		}
		capacity := 1 << (data[0] % 4)
		ops := data[1 : 1+(len(data)-1)/2*2]
		fuzzSequential(t, capacity, ops)
		fuzzConcurrent(t, capacity, ops)
	})
}

// fuzzSequential runs ops on one goroutine, so pushes use only forms that
// cannot block: TryPush, PushBatch of at most the free space, and Offer of
// any size — which must go in whole exactly when it fits, and otherwise
// leave the ring as it was but for a flush request and one failed push.
func fuzzSequential(t *testing.T, capacity int, ops []byte) {
	q := MustNew[int](capacity, WaitSleep)
	var model []int
	next, pushed, popped, mark, closed := 0, 0, 0, 0, false // mark: pushed at the last Flush
	failed := 0                                             // TryPush and Offer refusals
	take := func(what string, n int, got []int) {
		t.Helper()
		if n != len(got) {
			t.Fatalf("%s returned %d but delivered %d elements", what, n, len(got))
		}
		if n > len(model) {
			t.Fatalf("%s consumed %d of %d buffered", what, n, len(model))
		}
		for i, v := range got {
			if v != model[i] {
				t.Fatalf("%s element %d = %d, want %d", what, i, v, model[i])
			}
		}
		model = model[n:]
		popped += n
	}
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i]%numOps, int(ops[i+1])
		switch op {
		case 0:
			if closed {
				continue
			}
			if ok := q.TryPush(next); ok != (len(model) < capacity) {
				t.Fatalf("TryPush = %v with %d of %d buffered", ok, len(model), capacity)
			} else if ok {
				model = append(model, next)
				next++
				pushed++
			} else {
				failed++
			}
		case 1:
			if closed {
				continue
			}
			block := make([]int, arg%(capacity-len(model)+1))
			for j := range block {
				block[j] = next
				next++
			}
			q.PushBatch(block)
			model = append(model, block...)
			pushed += len(block)
		case 2:
			if v, ok := q.TryPop(); ok != (len(model) > 0) {
				t.Fatalf("TryPop ok = %v with %d buffered", ok, len(model))
			} else if ok {
				take("TryPop", 1, []int{v})
			}
		case 3, 4:
			batch, force := arg%5, op == 4
			want := max(batch, 1) // non-positive batches are coerced to 1
			if len(model) < want {
				want = 0
				if force {
					want = len(model)
				}
			}
			var got []int
			n := q.ConsumeBatch(batch, force, func(seg []int) { got = append(got, seg...) })
			if n != want {
				t.Fatalf("ConsumeBatch(%d, %v) = %d with %d buffered, want %d", batch, force, n, len(model), want)
			}
			take("ConsumeBatch", n, got)
		case 5:
			n := q.DiscardBatch(arg % 5)
			if want := min(max(arg%5, 1), len(model)); n != want {
				t.Fatalf("DiscardBatch(%d) = %d with %d buffered, want %d", arg%5, n, len(model), want)
			}
			model = model[n:]
			popped += n
		case 6:
			q.Close()
			closed = true
		case 7:
			q.Flush()
			mark = pushed
		case 8:
			if closed {
				continue
			}
			block := make([]int, arg%(capacity+2))
			for j := range block {
				block[j] = next + j
			}
			if ok := q.Offer(block); ok != (len(block) <= capacity-len(model)) {
				t.Fatalf("Offer(%d) = %v with %d of %d buffered", len(block), ok, len(model), capacity)
			} else if ok {
				model = append(model, block...)
				next += len(block)
				pushed += len(block)
			} else {
				failed++
				mark = pushed
			}
		}
		if q.Len() != len(model) || q.Closed() != closed || q.Flushing() != (popped < mark) || q.Drained() != (closed && len(model) == 0) {
			t.Fatalf("after op %d: Len=%d Closed=%v Flushing=%v Drained=%v, model has %d closed=%v popped=%d mark=%d",
				i/2, q.Len(), q.Closed(), q.Flushing(), q.Drained(), len(model), closed, popped, mark)
		}
	}
	if s := q.Snapshot(); s.Pushes != uint64(pushed) || s.Pops != uint64(popped) || s.FailedPush != uint64(failed) {
		t.Fatalf("counters: %+v, model pushed %d popped %d failed %d", s, pushed, popped, failed)
	}
}

// fuzzConcurrent gives the push operations to a producer goroutine (Push
// and PushBatch of any size, which block on a full ring; Offer, which does
// not, followed by a PushBatch of what it refused) and cycles the consume
// operations on the caller until the ring is drained, parking whenever one
// consumes nothing.
func fuzzConcurrent(t *testing.T, capacity int, ops []byte) {
	q, g := gated[int](capacity)
	qs := []*Queue[int]{q}
	total := 0
	for i := 0; i+1 < len(ops); i += 2 {
		switch ops[i] % numOps {
		case 0:
			total++
		case 1, 8:
			total += int(ops[i+1])
		}
	}
	go func() {
		defer q.Close()
		next := 0
		for i := 0; i+1 < len(ops); i += 2 {
			switch ops[i] % numOps {
			case 0:
				q.Push(next)
				next++
			case 1, 8:
				block := make([]int, ops[i+1])
				for j := range block {
					block[j] = next
					next++
				}
				if ops[i]%numOps == 1 || !q.Offer(block) {
					q.PushBatch(block)
				}
			case 7:
				q.Flush()
			}
		}
	}()
	expect := 0
	check := func(seg []int) {
		for _, v := range seg {
			if v != expect {
				t.Fatalf("consumed %d, want %d", v, expect)
			}
			expect++
		}
	}
	for i := 0; !q.Drained(); i = (i + 2) % len(ops) {
		op, need, n := ops[i]%numOps, 1, 0
		switch op {
		case 2:
			if v, ok := q.TryPop(); ok {
				check([]int{v})
				n = 1
			}
		case 3, 4:
			// As in the engines: a batch above the capacity could never
			// fill, and a closed or flushing ring is force-drained.
			need = min(max(int(ops[i+1])%5, 1), capacity)
			force := op == 4 || q.Closed() || q.Flushing()
			if force {
				n, need = q.ConsumeBatch(need, true, check), 1
			} else {
				n = q.ConsumeBatch(need, false, check)
			}
		case 5:
			n = q.DiscardBatch(int(ops[i+1]) % 5)
			expect += n
		default:
			// Producer-side bytes: a forced single-element consume, so a
			// sequence with no consumer operation still drains.
			n = q.ConsumeBatch(1, true, check)
		}
		if n == 0 {
			Park(g, qs, need, nil)
		}
	}
	if s := q.Snapshot(); expect != total || s.Pushes != uint64(total) || s.Pops != uint64(total) {
		t.Fatalf("delivered %d of %d; counters %+v", expect, total, s)
	}
}
