package workloads

import (
	"context"
	"fmt"
	"math/rand"

	"ramr/internal/container"
	"ramr/internal/mr"
	"ramr/internal/stats"
)

// hgBuckets is the histogram key range: 256 intensity buckets for each of
// the three color channels, as in the Phoenix++ Histogram app.
const hgBuckets = 3 * 256

// hgSplitBytes is the pixel bytes per split, kept a multiple of 3 so a
// pixel never straddles splits.
const hgSplitBytes = 12 << 10

// GeneratePixels builds about n bytes of deterministic synthetic RGB pixel
// data, pre-partitioned into splits. Channel distributions are skewed
// differently (sky-ish blue bias) so the histogram is non-uniform like a
// real bitmap.
func GeneratePixels(n int, seed int64) [][]byte {
	return generatePixels(n, seed, ShardSpec{Index: 0, Count: 1})
}

// generatePixels builds the splits shard sh owns of the n-byte bitmap, in
// index order; split i is substream i of the seed's "histogram" stream.
func generatePixels(n int, seed int64, sh ShardSpec) [][]byte {
	src := stats.NewStream(seed, "histogram")
	rng := rand.New(src)
	var splits [][]byte
	n -= n % 3
	for i := sh.Index; i*hgSplitBytes < n; i += sh.Count {
		src.Seek(i)
		b := make([]byte, min(hgSplitBytes, n-i*hgSplitBytes))
		for j := 0; j+2 < len(b); j += 3 {
			b[j] = byte(rng.Intn(200))        // R: darker
			b[j+1] = byte(rng.Intn(256))      // G: uniform
			b[j+2] = byte(55 + rng.Intn(200)) // B: brighter
		}
		splits = append(splits, b)
	}
	return splits
}

func hgContainer(kind container.Kind) container.Factory[int, int] {
	switch kind {
	case container.KindFixedHash:
		return func() container.Container[int, int] {
			return container.NewFixedHash[int, int](hgBuckets, container.HashInt)
		}
	case container.KindHash:
		return func() container.Container[int, int] { return container.NewHash[int, int]() }
	default:
		return func() container.Container[int, int] { return container.NewFixedArray[int](hgBuckets) }
	}
}

// HistogramSpec builds the HG job over the given pixel splits.
func HistogramSpec(splits [][]byte, kind container.Kind) *mr.Spec[[]byte, int, int, int] {
	return &mr.Spec[[]byte, int, int, int]{
		Name:   "HG",
		Splits: splits,
		Map: func(px []byte, emit func(int, int)) {
			for i := 0; i+2 < len(px); i += 3 {
				emit(int(px[i]), 1)
				emit(256+int(px[i+1]), 1)
				emit(512+int(px[i+2]), 1)
			}
		},
		Combine:      func(a, b int) int { return a + b },
		Reduce:       mr.IdentityReduce[int, int](),
		NewContainer: hgContainer(kind),
		Less:         func(a, b int) bool { return a < b },
	}
}

// HistogramJob instantiates Histogram over ~nBytes of synthetic pixels.
// Histogram is the image-processing app and, with LR, one of the two
// "light" workloads (lowest instructions-per-byte): three emissions per
// pixel with almost no computation, which is why the paper finds it
// unsuited to RAMR with default containers (queue overhead dominates).
func HistogramJob(nBytes int, kind container.Kind, seed int64) *Job {
	splits := GeneratePixels(nBytes, seed)
	spec := HistogramSpec(splits, kind)
	j := &Job{
		App:       "HG",
		FullName:  "Histogram",
		Container: kind,
		InputDesc: fmt.Sprintf("%d pixel-bytes in %d splits", nBytes, len(splits)),
	}
	return j.Bind(func(ctx context.Context, eng Engine, cfg mr.Config) (*RunInfo, error) {
		return RunTypedContext(ctx, spec, eng, cfg, hgPairDigest)
	})
}

// hgPairDigest folds one HG output pair into the run's order-independent
// digest; shard merging re-applies it over the merged container.
func hgPairDigest(k, v int) uint64 {
	return mix(uint64(k)*0x9e3779b97f4a7c15 ^ uint64(v))
}
