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

// BenchmarkFusedStep times one fused worker's step over every split of HG
// (10 MB of pixels, fixed-array and fixed-hash) and of LR (10 MB of
// points): core.Driver.Step on a one-worker session, so each pair costs
// what a fused run pays for it — the call into the container's fold, and
// combine.
func BenchmarkFusedStep(b *testing.B) {
	px, pts := GeneratePixels(10<<20, 1), GenerateLRPoints(10<<20/8, 1)
	for _, kind := range []container.Kind{container.KindFixedArray, container.KindFixedHash} {
		b.Run("HG/"+kind.String(), func(b *testing.B) { benchStep(b, HistogramSpec(px, kind)) })
	}
	b.Run("LR/array", func(b *testing.B) { benchStep(b, LinRegSpec(pts, container.KindFixedArray)) })
}

func benchStep[S any, K comparable, V, R any](b *testing.B, spec *mr.Spec[S, K, V, R]) {
	cfg := mr.DefaultConfig()
	cfg.Mappers, cfg.Combiners, cfg.Machine, cfg.Pin = 1, 1, topology.Flat(1), mr.PinNone
	d, err := core.NewSession(spec, cfg)
	if err != nil {
		b.Fatal(err)
	}
	d.RunWorker(context.Background(), 0, func(w int, lane *core.Lane[container.KV[K, V]], _ *telemetry.Worker) {
		step := d.Step(w, lane, nil)
		b.ResetTimer()
		for range b.N {
			step(core.Task[S]{Splits: spec.Splits})
		}
	})
}
