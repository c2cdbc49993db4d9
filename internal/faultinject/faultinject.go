// Package faultinject is the deterministic fault-injection harness for the
// two execution engines' slow paths: worker panics, injected delays that
// push the SPSC rings to their full/empty extremes, and context
// cancellation at awkward points (mid-map, mid-drain, pre-reduce).
//
// The paper's decoupled pipeline (§III-A) has a hard liveness contract: a
// producer blocked on a full ring is freed only by its combiner, so every
// failure path must keep consuming until each queue is drained. This
// package exists to drive those paths on purpose — via the test-only
// mr.Config.Hooks surface, nil in production — and to assert afterwards
// that the contract held: the fault surfaced as an ordinary error (never a
// process panic), every queue drained, element conservation held
// (Pushes == Pops), and no worker goroutine leaked.
//
// Everything is derived from a single seed, so a failing scenario from the
// randomized sweep reproduces exactly from its seed alone.
package faultinject

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ramr/internal/container"
	"ramr/internal/mr"
	"ramr/internal/spsc"
)

// Kind enumerates the injectable faults.
type Kind int

const (
	// None runs the scenario fault-free (the sweep's control arm).
	None Kind = iota
	// PanicMapTask panics at the Nth task start of map worker W.
	PanicMapTask
	// PanicMapEmit panics at the Nth emit of map worker W — after the
	// pair count has been staged in the producer-local slab, the
	// half-built-slab case the engine must discard.
	PanicMapEmit
	// PanicCombine panics at the Nth user-Combine call (injected by
	// wrapping the spec's Combine; works on both engines).
	PanicCombine
	// PanicCombineBatch panics at the Nth batch fold of combiner W
	// (RAMR engine only; a no-op scenario on Phoenix).
	PanicCombineBatch
	// PanicReduce panics at the Nth Reduce call (wrapped Reduce).
	PanicReduce
	// DelayMap sleeps at every Every-th emit of worker W, starving the
	// rings toward the empty extreme.
	DelayMap
	// DelayCombine sleeps before every Every-th batch fold of combiner
	// W, backing producers up against full rings (RAMR engine only).
	DelayCombine
	// CancelMidMap cancels the run's context at the Nth emit of worker
	// W, while the pipeline is in full flight.
	CancelMidMap
	// CancelMidDrain cancels when combiner W first enters its
	// force-drain tail (RAMR engine only).
	CancelMidDrain
	// CancelPreReduce cancels at the barrier between map-combine and
	// reduce.
	CancelPreReduce

	numKinds
)

// String names the fault for reports.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case PanicMapTask:
		return "panic-map-task"
	case PanicMapEmit:
		return "panic-map-emit"
	case PanicCombine:
		return "panic-combine"
	case PanicCombineBatch:
		return "panic-combine-batch"
	case PanicReduce:
		return "panic-reduce"
	case DelayMap:
		return "delay-map"
	case DelayCombine:
		return "delay-combine"
	case CancelMidMap:
		return "cancel-mid-map"
	case CancelMidDrain:
		return "cancel-mid-drain"
	case CancelPreReduce:
		return "cancel-pre-reduce"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// IsPanic reports whether the fault surfaces as a worker panic.
func (k Kind) IsPanic() bool {
	switch k {
	case PanicMapTask, PanicMapEmit, PanicCombine, PanicCombineBatch, PanicReduce:
		return true
	}
	return false
}

// IsCancel reports whether the fault cancels the run's context.
func (k Kind) IsCancel() bool {
	switch k {
	case CancelMidMap, CancelMidDrain, CancelPreReduce:
		return true
	}
	return false
}

// Plan is one fully-determined fault scenario.
type Plan struct {
	// Seed reproduces the scenario.
	Seed int64
	// Kind is the fault to inject.
	Kind Kind
	// Worker is the target worker index for worker-scoped kinds, or
	// AnyWorker.
	Worker int
	// Nth is the 1-based call ordinal that trips a panic or cancel.
	Nth int64
	// Every is the period of delay kinds: act on every Every-th call.
	Every int64
	// Delay is the sleep length of delay kinds.
	Delay time.Duration
}

// AnyWorker as a Plan's Worker aims a worker-scoped fault at whichever
// worker reaches the ordinal first. Where the engine, not the test, decides
// which worker gets the work (the stream session's mappers all pull from one
// channel), a fixed target may never get Nth calls; some worker always does.
const AnyWorker = -1

// targets reports whether worker w is one the plan aims at.
func (p Plan) targets(w int) bool { return p.Worker == AnyWorker || p.Worker == w }

// String renders the plan for failure messages.
func (p Plan) String() string {
	return fmt.Sprintf("seed=%d kind=%v worker=%d nth=%d every=%d delay=%v",
		p.Seed, p.Kind, p.Worker, p.Nth, p.Every, p.Delay)
}

// NewPlan derives a deterministic scenario from seed for a run with
// mapWorkers map-side and combineWorkers combine-side workers. The Nth
// ordinals are kept small enough that most scenarios actually fire on
// modest inputs; a plan that never fires is still a valid (fault-free)
// scenario and the sweep verifies its result instead.
func NewPlan(seed int64, mapWorkers, combineWorkers int) Plan {
	rng := rand.New(rand.NewSource(seed))
	p := Plan{
		Seed:  seed,
		Kind:  Kind(rng.Intn(int(numKinds))),
		Nth:   1 + int64(rng.Intn(300)),
		Every: 32 + int64(rng.Intn(96)),
		Delay: time.Duration(20+rng.Intn(180)) * time.Microsecond,
	}
	switch p.Kind {
	case PanicCombineBatch, DelayCombine, CancelMidDrain:
		p.Worker = rng.Intn(combineWorkers)
	default:
		p.Worker = rng.Intn(mapWorkers)
	}
	return p
}

// InjectedPanic is the value injected faults panic with, so sweeps can
// tell an injected failure from an accidental one.
type InjectedPanic struct{ Plan Plan }

// String renders the panic value as it appears inside a PanicError.
func (p InjectedPanic) String() string { return "faultinject: " + p.Plan.String() }

// Injector executes one Plan against one run: it counts hook and wrapper
// calls and fires the planned fault at the planned ordinal. One Injector
// serves exactly one run; build a fresh one per scenario.
type Injector struct {
	plan   Plan
	cancel context.CancelFunc
	fired  atomic.Bool

	emits   []atomic.Int64 // per map worker
	tasks   []atomic.Int64 // per map worker
	batches []atomic.Int64 // per combiner
	combine atomic.Int64   // global user-Combine calls (wrapped)
	reduce  atomic.Int64   // global Reduce calls (wrapped)

	rec Recorder
}

// NewInjector builds the injector for plan. cancel is the run context's
// cancel function, required by the Cancel* kinds (pass a no-op for plans
// that cannot cancel). Worker counts bound the per-worker counters.
func NewInjector(plan Plan, mapWorkers, combineWorkers int, cancel context.CancelFunc) *Injector {
	if cancel == nil {
		cancel = func() {}
	}
	return &Injector{
		plan:    plan,
		cancel:  cancel,
		emits:   make([]atomic.Int64, mapWorkers),
		tasks:   make([]atomic.Int64, mapWorkers),
		batches: make([]atomic.Int64, combineWorkers),
	}
}

// Plan returns the scenario this injector executes.
func (in *Injector) Plan() Plan { return in.plan }

// Fired reports whether the planned fault actually triggered. A plan
// whose target ordinal was never reached leaves the run fault-free.
func (in *Injector) Fired() bool { return in.fired.Load() }

// QueueReports returns the per-queue drain/stats reports recorded through
// the QueueObserver hook (RAMR runs only).
func (in *Injector) QueueReports() []QueueReport { return in.rec.Reports() }

// fire marks the fault as triggered.
func (in *Injector) fire() { in.fired.Store(true) }

// Hooks returns the engine-side hook set implementing the plan; assign it
// to Config.Hooks. The hook set also records queue reports for the
// invariant checks.
func (in *Injector) Hooks() *mr.Hooks {
	p := in.plan
	h := &mr.Hooks{
		QueueObserver: in.rec.Observer(),
	}
	h.MapTask = func(w int) {
		if w >= len(in.tasks) {
			return
		}
		n := in.tasks[w].Add(1)
		if p.Kind == PanicMapTask && p.targets(w) && n == p.Nth {
			in.fire()
			panic(InjectedPanic{p})
		}
	}
	h.MapEmit = func(w int) {
		if w >= len(in.emits) {
			return
		}
		n := in.emits[w].Add(1)
		if !p.targets(w) {
			return
		}
		switch p.Kind {
		case PanicMapEmit:
			if n == p.Nth {
				in.fire()
				panic(InjectedPanic{p})
			}
		case DelayMap:
			if n%p.Every == 0 {
				in.fire()
				time.Sleep(p.Delay)
			}
		case CancelMidMap:
			if n == p.Nth {
				in.fire()
				in.cancel()
			}
		}
	}
	h.CombineBatch = func(w int) {
		if w >= len(in.batches) {
			return
		}
		n := in.batches[w].Add(1)
		if !p.targets(w) {
			return
		}
		switch p.Kind {
		case PanicCombineBatch:
			if n == p.Nth {
				in.fire()
				panic(InjectedPanic{p})
			}
		case DelayCombine:
			if n%p.Every == 0 {
				in.fire()
				time.Sleep(p.Delay)
			}
		}
	}
	h.CombineDrain = func(w int) {
		if p.Kind == CancelMidDrain && p.targets(w) {
			in.fire()
			in.cancel()
		}
	}
	h.PreReduce = func() {
		if p.Kind == CancelPreReduce {
			in.fire()
			in.cancel()
		}
	}
	return h
}

// CombineCall counts one user-Combine invocation and reports whether the
// wrapper must panic. Combine runs concurrently on many workers, so the
// ordinal is global rather than per worker.
func (in *Injector) CombineCall() bool {
	if in.plan.Kind != PanicCombine {
		return false
	}
	if in.combine.Add(1) != in.plan.Nth {
		return false
	}
	in.fire()
	return true
}

// ReduceCall counts one Reduce invocation and reports whether the wrapper
// must panic.
func (in *Injector) ReduceCall() bool {
	if in.plan.Kind != PanicReduce {
		return false
	}
	if in.reduce.Add(1) != in.plan.Nth {
		return false
	}
	in.fire()
	return true
}

// WrapCombine instruments a user Combine with the injector's PanicCombine
// fault. The fused Phoenix engine has no combine-side hook (map and
// combine run on one worker), so combine faults are injected by wrapping
// the user function on both engines.
func WrapCombine[V any](in *Injector, f container.Combine[V]) container.Combine[V] {
	return func(a, b V) V {
		if in.CombineCall() {
			panic(InjectedPanic{in.plan})
		}
		return f(a, b)
	}
}

// WrapReduce instruments a user Reduce with the injector's PanicReduce
// fault.
func WrapReduce[K comparable, V, R any](in *Injector, f func(K, V) R) func(K, V) R {
	return func(k K, v V) R {
		if in.ReduceCall() {
			panic(InjectedPanic{in.plan})
		}
		return f(k, v)
	}
}

// Recorder collects QueueObserver reports so invariants can be checked
// after a run, with or without a full Injector. The zero value is ready.
type Recorder struct {
	mu      sync.Mutex
	reports []QueueReport
}

// Observer returns the callback to assign to Hooks.QueueObserver.
func (r *Recorder) Observer() func(int, bool, spsc.Stats) {
	return func(queue int, drained bool, stats spsc.Stats) {
		r.mu.Lock()
		r.reports = append(r.reports, QueueReport{Queue: queue, Drained: drained, Stats: stats})
		r.mu.Unlock()
	}
}

// Reports returns the reports recorded so far.
func (r *Recorder) Reports() []QueueReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]QueueReport(nil), r.reports...)
}
