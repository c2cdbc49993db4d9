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
	tcfg := core.ResolveTuner(*p.cfg.Tuner, p.mappers, p.cfg.QueueCapacity)
	// Pin the pool: grow/shrink decisions clamp to no-ops.
	tcfg.MinCombiners = p.combiners
	tcfg.MaxCombiners = p.combiners
	start := tuner.Settings{Combiners: p.combiners, Batch: int(p.batchA.Load())}
	return core.StartTuner(tcfg, start, p.tel, nil, p.queues, func(s tuner.Settings) {
		p.batchA.Store(int64(s.Batch))
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
