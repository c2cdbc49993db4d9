package stream

import (
	"ramr/internal/core"
	"ramr/internal/tuner"
)

// startTuner adapts the AIMD controller (internal/tuner) to a resident
// pipeline through the batch engine's driver (core.TunerDriver: the
// signals are engine-agnostic). Unlike the batch engine's elastic pool, a
// streaming session cannot hand SPSC rings between combiners mid-flight
// without an ownership protocol spanning windows, so the pool size is
// pinned (Min = Max = combiners) and the controller's surviving knob is
// the consume batch size. The controller keeps running across windows:
// its state is never reset at a seal, so tuning learned on window n
// carries into window n+1 (the ISSUE's "tuner keeps running across
// windows"). The caller guarantees p.tel is non-nil (New allocates a
// private Telemetry when the config tunes without one).
func (p *Pipeline[S, K, V, R]) startTuner() *core.TunerDriver {
	capQ := p.cfg.QueueCapacity
	caps := make([]int, len(p.queues))
	for i, q := range p.queues {
		caps[i] = q.Cap()
	}
	tcfg := *p.cfg.Tuner
	// Pin the pool: grow/shrink decisions clamp to no-ops.
	tcfg.MinCombiners = p.combiners
	tcfg.MaxCombiners = p.combiners
	if tcfg.MaxBatch <= 0 || tcfg.MaxBatch > capQ {
		tcfg.MaxBatch = capQ
	}
	if tcfg.MinBatch <= 0 {
		tcfg.MinBatch = tuner.DefaultMinBatch
	}
	if tcfg.MinBatch > tcfg.MaxBatch {
		tcfg.MinBatch = tcfg.MaxBatch
	}
	ctrl := tuner.NewController(tcfg, tuner.Settings{Combiners: p.combiners, Batch: int(p.batchA.Load())})
	return core.StartTunerDriver(ctrl, p.tel, caps, func(d tuner.Decision) {
		p.batchA.Store(int64(min(max(d.Settings.Batch, 1), capQ)))
	})
}

// TunerReport returns the controller's decision log, or nil when the
// session runs untuned.
func (p *Pipeline[S, K, V, R]) TunerReport() *tuner.Report {
	if p.driver == nil {
		return nil
	}
	return p.driver.Report()
}
