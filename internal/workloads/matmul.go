package workloads

import (
	"fmt"

	"ramr/internal/container"
	"ramr/internal/mr"
	"ramr/internal/stats"
)

// Matrix Multiply computes C = A x B with A (rows x inner) and B
// (inner x cols), "adapted to utilize the Map/Reduce semantics" as the
// paper footnotes: the inner dimension is blocked, each map task covers a
// (row-block, k-block) tile and emits *partial* dot products keyed by the
// output cell i*cols+j, and the combine function sums the partials. This
// blocking is what gives MM a genuinely heavy combine phase — each output
// cell is combined mmKBlocks times — making MM, with KM, the paper's
// strongest RAMR case.
//
// The map kernel streams B by rows. A per-cell dot product walks B down a
// column, one new cache line per multiply (a 2 KB stride at HWL-Large), and
// measures a memory-bound map the paper does not describe. Instead, for
// each group of mmRowGroup rows of the tile and each block of mmColBlock
// output columns, the kernel clears a stack accumulator, then for every k
// of the tile's k-block loads the group's A[i][k] once and adds A[i][k] x
// B[k][j] across the accumulator rows while reading B[k][jlo:jhi]
// sequentially, and finally emits each row's sums in ascending key order.
// This is the shape perfmodel's mmTrace describes. Integer sums are exact in
// any order, so the tile emits exactly the pairs of the textbook loop; the
// kernel allocates nothing.

// MMInput is a generated Matrix Multiply problem instance.
type MMInput struct {
	A, B []int32
	// Rows x Inner times Inner x Cols.
	Rows, Inner, Cols int
	// Splits are (rowLo, rowHi, kLo, kHi) tiles.
	Splits []MMTile
}

// MMTile is one map task: rows [RowLo, RowHi) against inner-dimension
// block [KLo, KHi).
type MMTile struct {
	RowLo, RowHi, KLo, KHi int
}

const (
	// mmRowBlock rows per tile.
	mmRowBlock = 16
	// mmKBlocks is how many blocks the inner dimension splits into —
	// i.e. how many partials are combined per output cell.
	mmKBlocks = 4
	// mmRowGroup rows of A share each pass over a row of B in the map
	// kernel; the four multipliers sit in registers.
	mmRowGroup = 4
	// mmColBlock output columns per accumulator row: 4 x 256 int64 partials
	// are 8 KB, resident in L1 while the k loop streams B.
	mmColBlock = 256
)

// GenerateMM builds deterministic random matrices and the tile list.
func GenerateMM(rows, inner, cols int, seed int64) *MMInput {
	rng := stats.Rng(seed, "matmul")
	a := make([]int32, rows*inner)
	for i := range a {
		a[i] = int32(rng.Intn(200) - 100)
	}
	b := make([]int32, inner*cols)
	for i := range b {
		b[i] = int32(rng.Intn(200) - 100)
	}
	kb := (inner + mmKBlocks - 1) / mmKBlocks
	var tiles []MMTile
	for rlo := 0; rlo < rows; rlo += mmRowBlock {
		rhi := rlo + mmRowBlock
		if rhi > rows {
			rhi = rows
		}
		for klo := 0; klo < inner; klo += kb {
			khi := klo + kb
			if khi > inner {
				khi = inner
			}
			tiles = append(tiles, MMTile{rlo, rhi, klo, khi})
		}
	}
	return &MMInput{A: a, B: b, Rows: rows, Inner: inner, Cols: cols, Splits: tiles}
}

func mmContainer(kind container.Kind, cells int) container.Factory[int, int64] {
	switch kind {
	case container.KindHash:
		return func() container.Container[int, int64] { return container.NewHashSized[int, int64](cells / 8) }
	case container.KindFixedHash:
		return func() container.Container[int, int64] {
			return container.NewFixedHash[int, int64](cells, container.HashInt)
		}
	default:
		// Every worker allocates the full output range even though each
		// mapper touches a limited row band — the capacity overshoot
		// the paper's §IV-E analyzes for MM's default container.
		return func() container.Container[int, int64] { return container.NewFixedArray[int64](cells) }
	}
}

// MatMulSpec builds the MM job.
func MatMulSpec(in *MMInput, kind container.Kind) *mr.Spec[MMTile, int, int64, int64] {
	cols, inner := in.Cols, in.Inner
	return &mr.Spec[MMTile, int, int64, int64]{
		Name:   "MM",
		Splits: in.Splits,
		Map: func(t MMTile, emit func(int, int64)) {
			var acc [mmRowGroup][mmColBlock]int64
			for i := t.RowLo; i < t.RowHi; i += mmRowGroup {
				// A short last group repeats the tile's last row in its
				// missing slots and emits only its real rows.
				var a [mmRowGroup][]int32
				for q := range a {
					r := min(i+q, t.RowHi-1)
					a[q] = in.A[r*inner : (r+1)*inner]
				}
				for jlo := 0; jlo < cols; jlo += mmColBlock {
					w := min(mmColBlock, cols-jlo)
					c0, c1, c2, c3 := acc[0][:w], acc[1][:w], acc[2][:w], acc[3][:w]
					clear(c0)
					clear(c1)
					clear(c2)
					clear(c3)
					for k := t.KLo; k < t.KHi; k++ {
						x0, x1, x2, x3 := int64(a[0][k]), int64(a[1][k]), int64(a[2][k]), int64(a[3][k])
						for j, b := range in.B[k*cols+jlo:][:w] {
							bv := int64(b)
							c0[j] += x0 * bv
							c1[j] += x1 * bv
							c2[j] += x2 * bv
							c3[j] += x3 * bv
						}
					}
					for q := range min(mmRowGroup, t.RowHi-i) {
						key := (i+q)*cols + jlo
						for j, s := range acc[q][:w] {
							emit(key+j, s)
						}
					}
				}
			}
		},
		Combine:      container.Sum[int64](),
		Reduce:       mr.IdentityReduce[int, int64](),
		NewContainer: mmContainer(kind, in.Rows*in.Cols),
		Less:         func(a, b int) bool { return a < b },
	}
}

// MatMulJob instantiates Matrix Multiply for (rows x inner)(inner x cols).
func MatMulJob(rows, inner, cols int, kind container.Kind, seed int64) *Job {
	in := GenerateMM(rows, inner, cols, seed)
	spec := MatMulSpec(in, kind)
	j := &Job{
		App:       "MM",
		FullName:  "Matrix Multiply",
		Container: kind,
		InputDesc: fmt.Sprintf("(%dx%d)x(%dx%d), %d tiles", rows, inner, inner, cols, len(in.Splits)),
	}
	return BindSpec(j, spec, nil, intPairDigest[int64], nil)
}
