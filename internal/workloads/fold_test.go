package workloads

import (
	"context"
	"testing"

	"ramr/internal/container"
	"ramr/internal/core"
	"ramr/internal/mr"
	"ramr/internal/telemetry"
	"ramr/internal/topology"
)

// BenchmarkFusedStep times one fused worker's step over every split of WC
// (10 MB of text, hash and fixed-hash), of HG (10 MB of pixels,
// fixed-array and fixed-hash), of LR (10 MB of points) and of KM (100,000
// points in 8 dimensions, 100 clusters: float sums): core.Driver.Step on a
// one-worker session, so each pair costs what a fused run pays for it —
// the call into the container's fold, and combine's add.
func BenchmarkFusedStep(b *testing.B) {
	text, px, pts := GenerateText(10<<20, 1), GeneratePixels(10<<20, 1), GenerateLRPoints(10<<20/8, 1)
	for _, kind := range []container.Kind{container.KindHash, container.KindFixedHash} {
		b.Run("WC/"+kind.String(), func(b *testing.B) { benchStep(b, WordCountSpec(text, kind)) })
	}
	for _, kind := range []container.Kind{container.KindFixedArray, container.KindFixedHash} {
		b.Run("HG/"+kind.String(), func(b *testing.B) { benchStep(b, HistogramSpec(px, kind)) })
	}
	b.Run("LR/array", func(b *testing.B) { benchStep(b, LinRegSpec(pts, container.KindFixedArray)) })
	b.Run("KM/array", func(b *testing.B) {
		benchStep(b, KMeansSpec(GenerateKMeans(100_000, 8, 100, 1), container.KindFixedArray))
	})
}

func benchStep[S any, K comparable, V, R any](b *testing.B, spec *mr.Spec[S, K, V, R]) {
	withStep(b, spec, func(step func(core.Task[S])) {
		b.ResetTimer()
		for range b.N {
			step(core.Task[S]{Splits: spec.Splits})
		}
	})
}

// withStep hands f the step of the one fused worker of a one-worker
// session over spec.
func withStep[S any, K comparable, V, R any](tb testing.TB, spec *mr.Spec[S, K, V, R], f func(step func(core.Task[S]))) {
	cfg := mr.DefaultConfig()
	cfg.Mappers, cfg.Combiners, cfg.Machine, cfg.Pin = 1, 1, topology.Flat(1), mr.PinNone
	d, err := core.NewSession(spec, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	d.RunWorker(context.Background(), 0, func(w int, lane *core.Lane[container.KV[K, V]], _ *telemetry.Worker) {
		f(d.Step(w, lane, nil))
	})
}

// TestWordCountStepAllocatesNothing: on a warm container, the fused step
// over WC's splits allocates nothing on either of WC's containers — the
// tokeniser emits its words uncopied, and the table hasher's argument does
// not escape.
func TestWordCountStepAllocatesNothing(t *testing.T) {
	text := GenerateText(64<<10, 1)
	for _, kind := range []container.Kind{container.KindHash, container.KindFixedHash} {
		withStep(t, WordCountSpec(text, kind), func(step func(core.Task[string])) {
			if allocs := testing.AllocsPerRun(10, func() { step(core.Task[string]{Splits: text}) }); allocs != 0 {
				t.Errorf("WC/%v: the step allocates %.1f times", kind, allocs)
			}
		})
	}
}
