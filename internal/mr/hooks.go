package mr

import "ramr/internal/spsc"

// Hooks is the test-only instrumentation surface both engines expose for
// internal/faultinject: fixed lifecycle points where the harness can
// panic, delay, or cancel to drive the slow paths (worker failure,
// mid-run cancellation, drain) deterministically.
//
// This is not a public extension API. Config.Hooks is nil in production
// and must stay nil: engines capture each callback once per worker before
// entering the hot loop, so an unset hook costs nothing per element, but
// a set hook runs inside the pipeline's innermost paths.
//
// A panic raised from a worker-scoped hook is recovered exactly like a
// user-code panic (it surfaces through FirstError as a PanicError), which
// is precisely what the fault-injection harness relies on.
type Hooks struct {
	// MapTask runs before a map worker executes each task.
	MapTask func(worker int)
	// MapEmit runs before each emitted pair is staged or pushed.
	MapEmit func(worker int)
	// CombineBatch runs before a combiner folds one consumed segment
	// into its container (a RAMR run that ships pairs: the pipeline
	// kernel's consume loop).
	CombineBatch func(worker int)
	// CombineDrain runs once per combiner when it first observes a
	// closed queue and enters the force-drain tail (same loop).
	CombineDrain func(worker int)
	// PreReduce runs on the coordinating goroutine after the
	// map-combine barrier, before the run's error checks — a
	// cancellation raised here is still honored.
	PreReduce func()
	// OnAbort runs once, when the first worker trips the abort flag.
	OnAbort func()
	// QueueObserver runs after the pipeline has shut down, once per
	// mapper queue, error or not (a RAMR run that ships pairs; a stream
	// session builds no queue).
	// It is the invariant checker's window into drain state and the
	// rings' own counters, for runs that die mid-pipeline and return no
	// Result, and the ground truth a run's ledger is checked against.
	QueueObserver func(queue int, drained bool, stats spsc.Stats)
}

// FirePreReduce invokes the PreReduce hook, tolerating a nil receiver so
// engines can call it unconditionally off the hot path.
func (h *Hooks) FirePreReduce() {
	if h != nil && h.PreReduce != nil {
		h.PreReduce()
	}
}

// FireOnAbort invokes the OnAbort hook, tolerating a nil receiver.
func (h *Hooks) FireOnAbort() {
	if h != nil && h.OnAbort != nil {
		h.OnAbort()
	}
}
