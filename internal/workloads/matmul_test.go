package workloads

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"ramr/internal/container"
	"ramr/internal/core"
	"ramr/internal/mr"
)

// naiveMM is C = A x B restricted to inner indices [klo, khi), by the
// textbook triple loop.
func naiveMM(in *MMInput, rlo, rhi, klo, khi int) map[int]int64 {
	c := map[int]int64{}
	for i := rlo; i < rhi; i++ {
		for j := 0; j < in.Cols; j++ {
			var s int64
			for k := klo; k < khi; k++ {
				s += int64(in.A[i*in.Inner+k]) * int64(in.B[k*in.Cols+j])
			}
			c[i*in.Cols+j] = s
		}
	}
	return c
}

// TestMatMulTilesExact: every tile's Map emits exactly the naive loop's
// (key, value) pairs for that tile, once each, and RAMR and Phoenix++ over
// every container MM runs on produce exactly the naive product. The shapes
// (rows x inner x cols) are ragged: rows not a multiple of the 16-row tile
// or of the kernel's 4-row group, inner below or not a multiple of
// mmKBlocks, cols past and not a multiple of mmColBlock.
func TestMatMulTilesExact(t *testing.T) {
	type kv struct {
		k int
		v int64
	}
	for _, sh := range [][3]int{{37, 53, 29}, {18, 3, 600}, {5, 7, 257}, {23, 29, 300}, {1, 1, 1}} {
		in := GenerateMM(sh[0], sh[1], sh[2], seed)
		name := fmt.Sprintf("%dx%dx%d", sh[0], sh[1], sh[2])
		spec := MatMulSpec(in, container.KindFixedArray)
		for _, tile := range in.Splits {
			var got []kv
			spec.Map(tile, func(k int, v int64) { got = append(got, kv{k, v}) })
			sort.Slice(got, func(a, b int) bool { return got[a].k < got[b].k })
			want := naiveMM(in, tile.RowLo, tile.RowHi, tile.KLo, tile.KHi)
			if len(got) != len(want) {
				t.Fatalf("%s tile %+v: %d pairs, want %d", name, tile, len(got), len(want))
			}
			for i, p := range got {
				if w, ok := want[p.k]; !ok || w != p.v || (i > 0 && got[i-1].k == p.k) {
					t.Fatalf("%s tile %+v: pair (%d, %d), want value %d (present %v)", name, tile, p.k, p.v, w, ok)
				}
			}
		}
		want := naiveMM(in, 0, in.Rows, 0, in.Inner)
		for _, kind := range []container.Kind{container.KindFixedArray, container.KindHash, container.KindFixedHash} {
			spec := MatMulSpec(in, kind)
			for eng, run := range []func(context.Context, *mr.Spec[MMTile, int, int64, int64], mr.Config) (*mr.Result[int, int64], error){
				core.RunContext[MMTile, int, int64, int64], core.RunPhoenixContext[MMTile, int, int64, int64],
			} {
				res, err := run(context.Background(), spec, cfg())
				if err != nil {
					t.Fatalf("%s %v engine %d: %v", name, kind, eng, err)
				}
				if len(res.Pairs) != len(want) {
					t.Fatalf("%s %v engine %d: %d cells, want %d", name, kind, eng, len(res.Pairs), len(want))
				}
				for _, p := range res.Pairs {
					if w, ok := want[p.Key]; !ok || w != p.Value {
						t.Fatalf("%s %v engine %d: C[%d] = %d, want %d (present %v)", name, kind, eng, p.Key, p.Value, w, ok)
					}
				}
			}
		}
	}
}

// mmLarge is the HWL-Large MM input, the shape batch_map runs.
func mmLarge(tb testing.TB) *MMInput {
	in, err := Input("MM", HWL, Large)
	if err != nil {
		tb.Fatal(err)
	}
	return GenerateMM(in.Params.RowsA, in.Params.Inner, in.Params.ColsB, 1)
}

// TestMatMulMapAllocatesNothing: one HWL-Large tile allocates nothing —
// the accumulator lives on the stack.
func TestMatMulMapAllocatesNothing(t *testing.T) {
	in := mmLarge(t)
	spec := MatMulSpec(in, container.KindFixedArray)
	emit := func(int, int64) {}
	if n := testing.AllocsPerRun(3, func() { spec.Map(in.Splits[0], emit) }); n != 0 {
		t.Fatalf("MM Map allocates %v times per tile, want 0", n)
	}
}

// BenchmarkMatMulMap times MM's map kernel per tile at the HWL-Large shape
// (16 rows x 128 inner x 512 cols) on one goroutine, emitting to a no-op.
func BenchmarkMatMulMap(b *testing.B) {
	in := mmLarge(b)
	spec := MatMulSpec(in, container.KindFixedArray)
	var sink int64
	emit := func(_ int, v int64) { sink += v }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec.Map(in.Splits[i%len(in.Splits)], emit)
	}
	_ = sink
}
