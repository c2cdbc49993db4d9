package workloads

import (
	"fmt"
	"math"

	"ramr/internal/container"
	"ramr/internal/mr"
	"ramr/internal/stats"
)

// KMeans keys: cluster c contributes keys c*(Dims+1)+d for its coordinate
// sums (d < Dims) and c*(Dims+1)+Dims for its member count. Keeping the
// value a plain float64 keeps containers allocation-free on the hot path.

// KMInput is a generated KMeans problem instance.
type KMInput struct {
	// Points holds n*Dims coordinates, point-major.
	Points []float64
	// Centroids holds K*Dims coordinates, centroid-major.
	Centroids []float64
	// Dims is the point dimensionality, K the cluster count.
	Dims, K int
	// Splits are [start, end) point-index ranges.
	Splits [][2]int
}

// kmSplitPoints is the number of points per split.
const kmSplitPoints = 256

// GenerateKMeans builds n points in dims dimensions drawn from k Gaussian
// blobs, plus k initial centroids perturbed from the blob centers.
func GenerateKMeans(n, dims, k int, seed int64) *KMInput {
	rng := stats.Rng(seed, "kmeans")
	centers := make([]float64, k*dims)
	for i := range centers {
		centers[i] = rng.Float64() * 100
	}
	pts := make([]float64, n*dims)
	for p := 0; p < n; p++ {
		c := rng.Intn(k)
		for d := 0; d < dims; d++ {
			pts[p*dims+d] = centers[c*dims+d] + rng.NormFloat64()*3
		}
	}
	cent := make([]float64, k*dims)
	for i := range cent {
		cent[i] = centers[i] + rng.NormFloat64()
	}
	var splits [][2]int
	for lo := 0; lo < n; lo += kmSplitPoints {
		hi := lo + kmSplitPoints
		if hi > n {
			hi = n
		}
		splits = append(splits, [2]int{lo, hi})
	}
	return &KMInput{Points: pts, Centroids: cent, Dims: dims, K: k, Splits: splits}
}

func kmContainer(kind container.Kind, keys int) container.Factory[int, float64] {
	switch kind {
	case container.KindFixedHash:
		return func() container.Container[int, float64] {
			return container.NewFixedHash[int, float64](keys, container.HashInt)
		}
	case container.KindHash:
		return func() container.Container[int, float64] { return container.NewHash[int, float64]() }
	default:
		return func() container.Container[int, float64] { return container.NewFixedArray[float64](keys) }
	}
}

// KMeansSpec builds one assignment iteration of KMeans as a MapReduce job:
// map finds each point's nearest centroid (K*Dims distance arithmetic per
// point — the heaviest map in the suite) and emits the point's coordinate
// contributions to that cluster's accumulator keys.
func KMeansSpec(in *KMInput, kind container.Kind) *mr.Spec[[2]int, int, float64, float64] {
	dims, k := in.Dims, in.K
	stride := dims + 1
	return &mr.Spec[[2]int, int, float64, float64]{
		Name:   "KM",
		Splits: in.Splits,
		Map: func(rng [2]int, emit func(int, float64)) {
			for p := rng[0]; p < rng[1]; p++ {
				pt := in.Points[p*dims : (p+1)*dims]
				best, bestD := 0, math.Inf(1)
				for c := 0; c < k; c++ {
					ct := in.Centroids[c*dims : (c+1)*dims]
					var d2 float64
					for d := 0; d < dims; d++ {
						diff := pt[d] - ct[d]
						d2 += diff * diff
					}
					if d2 < bestD {
						best, bestD = c, d2
					}
				}
				base := best * stride
				for d := 0; d < dims; d++ {
					emit(base+d, pt[d])
				}
				emit(base+dims, 1)
			}
		},
		Combine:      container.Sum[float64](),
		Reduce:       mr.IdentityReduce[int, float64](),
		NewContainer: kmContainer(kind, k*stride),
		Less:         func(a, b int) bool { return a < b },
	}
}

// KMeansStep extracts the updated centroids from one iteration's output.
// Empty clusters keep their previous centroid.
func KMeansStep(in *KMInput, pairs []mr.Pair[int, float64]) []float64 {
	stride := in.Dims + 1
	sums := make([]float64, in.K*stride)
	for _, p := range pairs {
		if p.Key >= 0 && p.Key < len(sums) {
			sums[p.Key] = p.Value
		}
	}
	next := append([]float64(nil), in.Centroids...)
	for c := 0; c < in.K; c++ {
		n := sums[c*stride+in.Dims]
		if n == 0 {
			continue
		}
		for d := 0; d < in.Dims; d++ {
			next[c*in.Dims+d] = sums[c*stride+d] / n
		}
	}
	return next
}

// KMeansJob instantiates one KMeans assignment iteration. KMeans is the
// paper's best RAMR case: a compute-intensive map (distance evaluation)
// feeding a memory-intensive combine (accumulator updates), i.e. exactly
// the complementary behaviour the decoupled pipeline exploits.
func KMeansJob(nPoints, dims, k int, kind container.Kind, seed int64) *Job {
	in := GenerateKMeans(nPoints, dims, k, seed)
	spec := KMeansSpec(in, kind)
	j := &Job{
		App:       "KM",
		FullName:  "KMeans",
		Container: kind,
		InputDesc: fmt.Sprintf("%d points, %d dims, %d clusters", nPoints, dims, k),
	}
	// Float accumulation order differs between engines, so no exact
	// digest: tests compare outputs with a tolerance.
	return BindSpec(j, spec, nil, nil, nil)
}
