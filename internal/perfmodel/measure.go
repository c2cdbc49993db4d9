package perfmodel

import (
	"ramr/internal/container"
	"ramr/internal/topology"
)

// Suitability computes the Fig. 10 metrics (IPB, MSPI, RSPI) for one
// application under one container configuration on machine m. As in the
// paper, the metrics "concern the map/combine phase only": the model
// executes the interleaved map/combine trace on one hardware thread's
// cache view (capacity shared with its SMT siblings) and aggregates both
// phases' counters.
func Suitability(m *topology.Machine, app string, kind container.Kind) (Metrics, error) {
	tr, err := ForApp(app, kind)
	if err != nil {
		return Metrics{}, err
	}
	model, err := NewModel(m, 1)
	if err != nil {
		return Metrics{}, err
	}
	mapC, combC := model.ExecutePhases(tr.Gen)
	mapC.Add(combC)
	return ComputeMetrics(mapC, tr.InputBytes), nil
}

// PhaseCost is the per-emitted-element cost of one phase, the currency of
// the runtime simulator (internal/simarch).
type PhaseCost struct {
	// CyclesPerElem is the average cycles one element costs this phase.
	CyclesPerElem float64
	// MemFrac is the fraction of those cycles stalled on memory —
	// the "complementary characteristics" dial: a compute-heavy phase
	// has a low MemFrac, a memory-heavy one a high MemFrac.
	MemFrac float64
}

func frac(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	f := float64(num) / float64(den)
	if f > 1 {
		f = 1
	}
	return f
}
