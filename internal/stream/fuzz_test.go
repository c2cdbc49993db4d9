package stream

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"ramr/internal/mr"
)

// FuzzStreamChunks feeds a session arbitrary chunks — tick order,
// lateness, split counts and sizes, and the plan, all drawn from the input —
// and checks the windowing contract against a ledger of what Append
// admitted: every admitted element lands in exactly one tumbling window, the
// window of its chunk's tick, and each window's Elements is what was
// admitted at that tick. Rejected chunks (late, or past the pending bound)
// must leave no trace, and the books close with every pair folded where it
// was made, on either plan, while workers switch panes from one split to the
// next.
//
// Input layout: byte 0 is the lateness (mod 4) and, in bit 2, the plan (set:
// a sibling plan, on which a batch run would ship); then three bytes a chunk
// — tick (mod 16), split count (mod 5) and elements per split (mod 64).
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
		const keys = 8
		cfg := testConfig(t, &mr.StreamSpec{Window: 1, Lateness: int64(data[0] % 4), MaxPending: 8})
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
			ts, splits, elems := int64(b[0]%16), int(b[1]%5), int(b[2]%64)
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
		ws := p.Windows()
		var total uint64
		for _, w := range ws {
			total += w.Elements
		}
		if len(ws) != len(admitted) {
			t.Fatalf("%d windows sealed, want one per tick that admitted splits (%d): %v", len(ws), len(admitted), admitted)
		}
		for _, w := range ws {
			want, ok := admitted[w.Index]
			if !ok {
				t.Fatalf("window %d sealed with no admitted split in it", w.Index)
			}
			var sum uint64
			for _, pr := range w.Pairs {
				sum += pr.Value
			}
			if w.Elements != want || sum != want {
				t.Fatalf("window %d holds %d elements summing to %d, want %d admitted", w.Index, w.Elements, sum, want)
			}
			delete(admitted, w.Index)
		}
		checkBooks(t, p, mapperTakes.Load(), total)
	})
}
