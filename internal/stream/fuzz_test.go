package stream

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"ramr/internal/mr"
)

// windowShapes are the (Window, Slide) pairs FuzzStreamChunks draws; the
// first is the tumbling window of one tick.
var windowShapes = [8][2]int64{{1, 1}, {2, 1}, {3, 1}, {4, 2}, {2, 2}, {4, 1}, {6, 3}, {6, 2}}

// FuzzStreamChunks feeds a session arbitrary chunks — tick order,
// lateness, split counts and sizes, the window shape and the plan, all drawn
// from the input — and checks the windowing contract against a ledger of
// what Append admitted: exactly the windows covering a tick that admitted
// splits seal, and each window's Elements and the sum of its pairs are what
// was admitted at the ticks it covers — on sliding windows too, where panes
// are shared. Rejected chunks (late, or past the pending bound) must leave
// no trace, and the books close with every pair folded where it was made,
// on either plan, while workers switch panes from one split to the next.
//
// Input layout: byte 0 is the lateness (mod 4), in bit 2 the plan (set: a
// sibling plan, on which a batch run would ship) and in bits 3-5 the window
// shape (windowShapes); then three bytes a chunk — tick (mod 16), split
// count (mod 5) and elements per split (mod 64).
func FuzzStreamChunks(f *testing.F) {
	f.Add([]byte{0, 0, 2, 10, 1, 3, 20, 2, 1, 5})
	f.Add([]byte{2, 5, 4, 63, 3, 1, 7, 4, 2, 0, 9, 4, 40, 1, 0, 0})
	f.Add([]byte{3, 15, 1, 1, 0, 4, 33, 12, 4, 33, 13, 3, 2, 14, 0, 9})
	f.Add([]byte{4, 0, 2, 10, 1, 3, 20, 2, 1, 5})
	f.Add([]byte{6, 5, 4, 63, 3, 1, 7, 4, 2, 0, 9, 4, 40, 1, 0, 0})
	f.Add([]byte{7, 15, 1, 1, 0, 4, 33, 12, 4, 33, 13, 3, 2, 14, 0, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1+3*64 {
			return
		}
		const keys, ticks = 8, 16
		shape := windowShapes[data[0]>>3&7]
		cfg := testConfig(t, &mr.StreamSpec{Window: shape[0], Slide: shape[1], Lateness: int64(data[0] % 4), MaxPending: 8})
		cfg = place(cfg, data[0]&4 != 0)
		var mapperTakes atomic.Uint64
		cfg.Hooks = &mr.Hooks{MapTask: func(w int) {
			if w < cfg.Mappers {
				mapperTakes.Add(1)
			}
		}}
		p, err := New(countSpec(keys), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		admitted := map[int64]uint64{} // tick -> elements; present once a split landed
		for b := data[1:]; len(b) >= 3; b = b[3:] {
			ts, splits, elems := int64(b[0]%ticks), int(b[1]%5), int(b[2]%64)
			c := chunkOf(ts, splits, elems)
			var late *LateChunkError
			for {
				_, err := p.Append(c)
				var bp *BackpressureError
				if errors.As(err, &bp) {
					time.Sleep(50 * time.Microsecond)
					continue
				}
				if err != nil && !errors.As(err, &late) {
					t.Fatalf("append tick %d: %v", ts, err)
				}
				break
			}
			if late == nil && splits > 0 {
				admitted[ts] += uint64(splits * elems)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if err := p.Close(ctx); err != nil {
			t.Fatalf("close: %v", err)
		}
		var total uint64
		for _, e := range admitted {
			total += e
		}
		covered := 0
		for n := int64(0); n*shape[1] < ticks; n++ {
			var want uint64
			hit := false
			for ts := n * shape[1]; ts < n*shape[1]+shape[0]; ts++ {
				e, ok := admitted[ts]
				want, hit = want+e, hit || ok
			}
			w, sealed := p.Window(n)
			if !hit {
				if sealed {
					t.Fatalf("window %d sealed with no admitted split in it", n)
				}
				continue
			}
			covered++
			if !sealed {
				t.Fatalf("window %d never sealed, want %d elements of ticks [%d,%d): %v", n, want, n*shape[1], n*shape[1]+shape[0], admitted)
			}
			var sum uint64
			for _, pr := range w.Pairs {
				sum += pr.Value
			}
			if w.Elements != want || sum != want {
				t.Fatalf("window %d holds %d elements summing to %d, want %d admitted at ticks [%d,%d)", n, w.Elements, sum, want, w.Start, w.End)
			}
		}
		if n := len(p.Windows()); n != covered {
			t.Fatalf("%d windows sealed, want the %d that cover a tick with admitted splits", n, covered)
		}
		checkBooks(t, p, mapperTakes.Load(), total)
	})
}
