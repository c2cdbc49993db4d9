// KMeans: iterative MapReduce on the public API. Each iteration is one
// RAMR invocation — assignment in the map phase, centroid accumulation in
// the combine phase — exactly the compute-map / memory-combine structure
// the paper identifies as RAMR's best case.
//
//	go run ./examples/kmeans -points 50000 -k 16 -dims 8
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"
)

import "ramr"

func main() {
	nPoints := flag.Int("points", 50_000, "number of points")
	k := flag.Int("k", 16, "number of clusters")
	dims := flag.Int("dims", 8, "point dimensionality")
	maxIter := flag.Int("iter", 50, "maximum iterations")
	eps := flag.Float64("eps", 1e-3, "convergence threshold on centroid movement")
	seed := flag.Int64("seed", 7, "input seed")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	// Ground-truth blob centers, points around them, perturbed starts.
	centers := make([]float64, *k**dims)
	for i := range centers {
		centers[i] = rng.Float64() * 100
	}
	points := make([]float64, *nPoints**dims)
	for p := 0; p < *nPoints; p++ {
		c := rng.Intn(*k)
		for d := 0; d < *dims; d++ {
			points[p**dims+d] = centers[c**dims+d] + rng.NormFloat64()*2
		}
	}
	centroids := make([]float64, len(centers))
	for i := range centroids {
		centroids[i] = centers[i] + rng.NormFloat64()*5
	}

	// Splits are point-index ranges; the point data stays shared.
	var splits [][2]int
	const splitPoints = 512
	for lo := 0; lo < *nPoints; lo += splitPoints {
		hi := lo + splitPoints
		if hi > *nPoints {
			hi = *nPoints
		}
		splits = append(splits, [2]int{lo, hi})
	}

	d, kk := *dims, *k
	stride := d + 1 // per cluster: d coordinate sums + 1 count
	spec := &ramr.Spec[[2]int, int, float64, float64]{
		Name:   "kmeans",
		Splits: splits,
		Map: func(rngIdx [2]int, emit func(int, float64)) {
			for p := rngIdx[0]; p < rngIdx[1]; p++ {
				pt := points[p*d : (p+1)*d]
				best, bestD := 0, math.Inf(1)
				for c := 0; c < kk; c++ {
					ct := centroids[c*d : (c+1)*d]
					var d2 float64
					for i := 0; i < d; i++ {
						diff := pt[i] - ct[i]
						d2 += diff * diff
					}
					if d2 < bestD {
						best, bestD = c, d2
					}
				}
				base := best * stride
				for i := 0; i < d; i++ {
					emit(base+i, pt[i])
				}
				emit(base+d, 1)
			}
		},
		Combine:      ramr.Sum[float64](),
		Reduce:       ramr.IdentityReduce[int, float64](),
		NewContainer: ramr.FixedArrayFactory[float64](kk * stride),
	}

	cfg := ramr.DefaultConfig()
	start := time.Now()
	// ramr.Iterate re-runs the job until the done callback reports
	// convergence; the map closure reads the centroids slice we update
	// in place each round.
	_, info, err := ramr.Iterate(*maxIter,
		func(int) (*ramr.Result[int, float64], error) { return ramr.Run(spec, cfg) },
		func(_ int, res *ramr.Result[int, float64]) bool {
			sums := make([]float64, kk*stride)
			for _, p := range res.Pairs {
				sums[p.Key] = p.Value
			}
			var moved float64
			for c := 0; c < kk; c++ {
				n := sums[c*stride+d]
				if n == 0 {
					continue
				}
				for i := 0; i < d; i++ {
					next := sums[c*stride+i] / n
					moved += math.Abs(next - centroids[c*d+i])
					centroids[c*d+i] = next
				}
			}
			return moved < *eps
		})
	if err != nil {
		log.Fatal(err)
	}
	iter := info.Iterations
	elapsed := time.Since(start)

	// Report recovered centroids against the ground truth.
	var worst float64
	for c := 0; c < kk; c++ {
		best := math.Inf(1)
		for g := 0; g < kk; g++ {
			var d2 float64
			for i := 0; i < d; i++ {
				diff := centroids[c*d+i] - centers[g*d+i]
				d2 += diff * diff
			}
			if d2 < best {
				best = d2
			}
		}
		if r := math.Sqrt(best); r > worst {
			worst = r
		}
	}
	fmt.Printf("converged after %d iterations in %v\n", iter, elapsed)
	fmt.Printf("worst centroid distance to a true blob center: %.3f\n", worst)
}
