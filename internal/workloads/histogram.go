package workloads

import (
	"fmt"

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
	return generatePixels(n, seed, whole, 0)
}

// generatePixels builds the splits shard sh owns of the n-byte bitmap, in
// index order, on width goroutines; split i is substream i of the seed's
// "histogram" stream.
func generatePixels(n int, seed int64, sh ShardSpec, width int) [][]byte {
	n -= n % 3
	splits := make([][]byte, sh.Owned((n+hgSplitBytes-1)/hgSplitBytes))
	FillSplits(len(splits), width, func(lo, hi int) {
		// src.Int31n(c) is rand.New(src).Intn(c), inlined with c constant.
		src := stats.NewStream(seed, "histogram")
		for k := lo; k < hi; k++ {
			i := sh.Index + k*sh.Count
			src.Seek(i)
			b := make([]byte, min(hgSplitBytes, n-i*hgSplitBytes))
			for j := 0; j+2 < len(b); j += 3 {
				b[j] = byte(src.Int31n(200))        // R: darker
				b[j+1] = byte(src.Int31n(256))      // G: uniform
				b[j+2] = byte(55 + src.Int31n(200)) // B: brighter
			}
			splits[k] = b
		}
	})
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
		Combine:      container.Sum[int](),
		Reduce:       mr.IdentityReduce[int, int](),
		NewContainer: hgContainer(kind),
		Less:         func(a, b int) bool { return a < b },
	}
}

// HistogramJob instantiates Histogram over ~nBytes of synthetic pixels —
// shard sh of it when sh is non-nil, exporting its bucket→count container
// (see BindSpec) — built on width goroutines. Histogram is the
// image-processing app and, with LR, one of the two "light" workloads
// (lowest instructions-per-byte): three emissions per pixel with almost no
// computation, which is why the paper finds it unsuited to RAMR with
// default containers (queue overhead dominates).
func HistogramJob(nBytes int, kind container.Kind, seed int64, sh *ShardSpec, width int) *Job {
	splits := generatePixels(nBytes, seed, sh.orWhole(), width)
	j := &Job{
		App:       "HG",
		FullName:  "Histogram",
		Container: kind,
		InputDesc: fmt.Sprintf("%d pixel-bytes in %d splits", nBytes, len(splits)),
	}
	return BindSpec(j, HistogramSpec(splits, kind), sh, intPairDigest[int], func(pairs []mr.Pair[int, int]) *Partial {
		return IntPartial("HG", pairs)
	})
}
