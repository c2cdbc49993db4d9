package workloads

import (
	"fmt"

	"ramr/internal/container"
	"ramr/internal/mr"
	"ramr/internal/stats"
)

// PCA computes the covariance matrix of an N x N integer matrix whose row
// means are pre-computed (the mean pass is O(N^2) against the covariance
// pass's O(N^3), so the covariance job dominates and is what we time, as
// in the Phoenix suite where the covariance phase dwarfs the mean phase).
//
// Keys are packed upper-triangle coordinates i*N+j (i <= j); each map task
// covers a block of row pairs and emits one full covariance entry per
// pair, so the map is long arithmetic over two rows (high IPB, sequential
// access — the paper's Fig. 10 shows PCA with high instruction intensity
// but few stalls, which is why RAMR neither helps nor hurts it much).

// PCAInput is a generated PCA problem instance.
type PCAInput struct {
	// Matrix is the N x N data, row-major.
	Matrix []int32
	// Mean[i] is the mean of row i (integer division, as in Phoenix).
	Mean []int32
	// N is the dimension.
	N int
	// Splits are [start, end) ranges over the flattened upper-triangle
	// pair index space.
	Splits [][2]int
	// PairIndex maps flattened index -> (i, j) with i <= j.
	PairIndex [][2]int32
}

// pcaSplitPairs is the number of row pairs per split.
const pcaSplitPairs = 64

// GeneratePCA builds a deterministic N x N matrix with correlated rows and
// pre-computes the row means.
func GeneratePCA(n int, seed int64) *PCAInput {
	rng := stats.Rng(seed, "pca")
	m := make([]int32, n*n)
	base := make([]int32, n)
	for j := range base {
		base[j] = int32(rng.Intn(100))
	}
	for i := 0; i < n; i++ {
		scale := int32(1 + i%3)
		for j := 0; j < n; j++ {
			m[i*n+j] = base[j]*scale + int32(rng.Intn(20))
		}
	}
	mean := make([]int32, n)
	for i := 0; i < n; i++ {
		var s int64
		for j := 0; j < n; j++ {
			s += int64(m[i*n+j])
		}
		mean[i] = int32(s / int64(n))
	}
	var pairs [][2]int32
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			pairs = append(pairs, [2]int32{int32(i), int32(j)})
		}
	}
	var splits [][2]int
	for lo := 0; lo < len(pairs); lo += pcaSplitPairs {
		hi := lo + pcaSplitPairs
		if hi > len(pairs) {
			hi = len(pairs)
		}
		splits = append(splits, [2]int{lo, hi})
	}
	return &PCAInput{Matrix: m, Mean: mean, N: n, Splits: splits, PairIndex: pairs}
}

func pcaContainer(kind container.Kind, n int) container.Factory[int, int64] {
	switch kind {
	case container.KindHash:
		return func() container.Container[int, int64] { return container.NewHash[int, int64]() }
	case container.KindFixedHash:
		return func() container.Container[int, int64] {
			return container.NewFixedHash[int, int64](n*(n+1)/2+1, container.HashInt)
		}
	default:
		// The fixed array spans the full N x N key space even though
		// only the upper triangle is used — the same capacity
		// overshoot the paper describes for MM's default container.
		return func() container.Container[int, int64] { return container.NewFixedArray[int64](n * n) }
	}
}

// PCASpec builds the covariance job.
func PCASpec(in *PCAInput, kind container.Kind) *mr.Spec[[2]int, int, int64, int64] {
	n := in.N
	return &mr.Spec[[2]int, int, int64, int64]{
		Name:   "PCA",
		Splits: in.Splits,
		Map: func(rng [2]int, emit func(int, int64)) {
			for p := rng[0]; p < rng[1]; p++ {
				i, j := int(in.PairIndex[p][0]), int(in.PairIndex[p][1])
				ri := in.Matrix[i*n : (i+1)*n]
				rj := in.Matrix[j*n : (j+1)*n]
				mi, mj := int64(in.Mean[i]), int64(in.Mean[j])
				var cov int64
				for k := 0; k < n; k++ {
					cov += (int64(ri[k]) - mi) * (int64(rj[k]) - mj)
				}
				emit(i*n+j, cov/int64(n-1))
			}
		},
		Combine:      container.Sum[int64](),
		Reduce:       mr.IdentityReduce[int, int64](),
		NewContainer: pcaContainer(kind, n),
		Less:         func(a, b int) bool { return a < b },
	}
}

// PCAJob instantiates PCA (covariance) over an N x N synthetic matrix.
func PCAJob(n int, kind container.Kind, seed int64) *Job {
	in := GeneratePCA(n, seed)
	spec := PCASpec(in, kind)
	j := &Job{
		App:       "PCA",
		FullName:  "Principal Component Analysis (covariance)",
		Container: kind,
		InputDesc: fmt.Sprintf("%dx%d matrix, %d row pairs", n, n, len(in.PairIndex)),
	}
	return BindSpec(j, spec, nil, intPairDigest[int64], nil)
}
