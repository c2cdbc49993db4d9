package spsc

import (
	"runtime"
	"testing"
)

// TestRaceMixedProducerConsumer hammers every producer entry point
// (PushBatch of one element and of varying block sizes, Offer falling back
// to PushBatch when refused) against every consumer mode (ConsumeBatch of
// one element and of varying batch sizes, forced and unforced) on
// wrap-around-sized rings. Run under -race (CI does) it exercises the
// cached-index paths for data races; in any mode it asserts the
// exactly-once, in-order contract — no element lost, duplicated, or
// reordered. Two of the four consumer modes force-consume partial batches
// so the tiny rings drain steadily; otherwise a blocked producer turns the
// test into a sleep benchmark on single-CPU hosts.
func TestRaceMixedProducerConsumer(t *testing.T) {
	const n = 5_000
	for _, capacity := range []int{2, 4} {
		q := MustNew[int](capacity, WaitSleep)
		done := make(chan struct{})
		go func() {
			defer close(done)
			expect := 0
			check := func(b []int) {
				for _, v := range b {
					if v != expect {
						t.Errorf("cap=%d: got %d, want %d", capacity, v, expect)
						return
					}
					expect++
				}
			}
			mode := 0
			for !q.Drained() {
				consumed := 0
				switch mode % 4 {
				case 0:
					consumed = q.ConsumeBatch(1, true, check)
				case 1:
					consumed = q.ConsumeBatch(2, true, check)
				case 2:
					// Unforced: fires only on a full block.
					consumed = q.ConsumeBatch(2, q.Closed(), check)
				case 3:
					consumed = q.ConsumeBatch(3, true, check)
				}
				mode++
				if consumed == 0 {
					runtime.Gosched()
				}
			}
			if expect != n {
				t.Errorf("cap=%d: consumed %d of %d elements", capacity, expect, n)
			}
		}()
		// Rotate producer modes: single-element pushes, and blocks of 1..5
		// elements either pushed or offered (a refused offer is pushed).
		block := make([]int, 0, 5)
		v := 0
		for v < n {
			mode := (v / 7) % 3
			if mode == 0 {
				push(q, v)
				v++
				continue
			}
			size := min(1+v%5, n-v)
			block = block[:0]
			for i := 0; i < size; i++ {
				block = append(block, v+i)
			}
			if mode == 1 || !q.Offer(block) {
				q.PushBatch(block)
			}
			v += size
		}
		q.Close()
		<-done
		s := q.Snapshot()
		if s.Pushes != n || s.Pops != n {
			t.Fatalf("cap=%d: stats pushes=%d pops=%d, want %d", capacity, s.Pushes, s.Pops, n)
		}
	}
}
