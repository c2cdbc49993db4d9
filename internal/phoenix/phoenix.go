// Package phoenix implements the baseline execution engine the paper
// compares against: a Go port of the Phoenix++ strategy for shared-memory
// MapReduce (Talbot, Yoo, Kozyrakis, MapReduce '11).
//
// In Phoenix++ the combine function is applied *after every map operation*
// into a thread-local container — map and combine are fused on the same
// worker thread and therefore serialized with each other. The subsequent
// reduce runs in parallel over the merged containers, and a final merge
// orders the output. This fusion is precisely the structural property RAMR
// (internal/core) relaxes, so keeping everything else — splits, tasks,
// containers, reduce, merge — byte-identical between the two engines makes
// the comparison isolate the runtime architecture, as in the paper.
package phoenix

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ramr/internal/container"
	"ramr/internal/mr"
	"ramr/internal/telemetry"
)

// Run executes the job with the Phoenix++ strategy: cfg.Mappers +
// cfg.NumCombiners() general-purpose workers (so total thread budget
// matches an equivalent RAMR run), each fusing map and combine into a
// private container, followed by parallel reduce and merge.
func Run[S any, K comparable, V, R any](spec *mr.Spec[S, K, V, R], cfg mr.Config) (*mr.Result[K, R], error) {
	return RunContext(context.Background(), spec, cfg)
}

// RunContext is Run with cancellation: workers stop taking tasks after
// their current one once ctx is cancelled, and the context's error is
// returned.
func RunContext[S any, K comparable, V, R any](ctx context.Context, spec *mr.Spec[S, K, V, R], cfg mr.Config) (_ *mr.Result[K, R], err error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Stream != nil {
		return nil, fmt.Errorf("phoenix: Config.Stream is set; streaming runs go through internal/stream, not the batch engine")
	}
	// Phoenix++ pins nothing, but a grant names CPUs of the machine here as
	// it does for RAMR; the machine is resolved only to check one.
	if len(cfg.CPUGrant) > 0 {
		if err := cfg.ValidateGrant(cfg.ResolveMachine()); err != nil {
			return nil, err
		}
	}
	// A context that is already dead must fail fast: no worker or sampler
	// is ever created for a run that cannot make progress.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	workers := cfg.Mappers + cfg.NumCombiners()

	res := &mr.Result[K, R]{}

	// Every worker books its tasks on a shard of the run's ledger, like
	// RAMR's. The sampler, its optional reader, has no queues to probe
	// here, but the counters and worker utilization curves make the two
	// engines directly comparable. Its report is built on the way out, so
	// no return can leak its goroutine.
	ledger := telemetry.NewLedger("phoenix")
	tel := cfg.Telemetry
	if tel != nil {
		tel.BeginRun(ledger)
		defer func() {
			if rep := tel.EndRun(res.Phases.SecondsByPhase()); err == nil {
				res.Telemetry = rep
			}
		}()
	}

	// --- Init: allocate per-worker containers. ---
	t0 := time.Now()
	containers := make([]container.Container[K, V], workers)
	for i := range containers {
		containers[i] = spec.NewContainer()
	}
	res.Phases.Init = time.Since(t0)

	// --- Partition: group splits into tasks. ---
	t0 = time.Now()
	tasks := mr.Tasks(len(spec.Splits), cfg.TaskSize)
	res.Phases.Partition = time.Since(t0)

	// --- Map-combine: fused, dynamic task dispatch. A user-code panic
	// becomes an error; the abort flag stops further dispatch. ---
	t0 = time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	var firstErr mr.FirstError
	var abort atomic.Bool
	// trip raises the abort flag; the OnAbort hook fires only for the
	// first worker to trip it.
	trip := func() {
		if abort.CompareAndSwap(false, true) {
			cfg.Hooks.FireOnAbort()
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		// pprof.Do labels the goroutine so CPU profiles segment the
		// fused workers from reduce/merge helpers and, side by side
		// with a RAMR profile, mapper vs combiner time.
		go func(w int, c container.Container[K, V]) {
			defer wg.Done()
			labels := pprof.Labels("engine", "phoenix", "role", "worker", "worker", strconv.Itoa(w))
			pprof.Do(ctx, labels, func(context.Context) {
				tw := ledger.Register("worker", w)
				defer tw.SetState(telemetry.StateDone)
				defer func() {
					if r := recover(); r != nil {
						firstErr.Set(&mr.PanicError{Engine: "phoenix", Worker: fmt.Sprintf("worker %d", w), Value: r})
						trip()
					}
				}()
				track := cfg.Trace.Worker("worker", w)
				defer track.Publish()
				emit := func(k K, v V) { c.Update(k, v, spec.Combine) }
				// In the fused engine every emitted pair is folded in
				// place, so one local counter feeds both totals at task
				// boundaries. It is the repo's only per-pair counter, so
				// only a sampled run pays for it.
				var emitted, folded uint64
				if tel != nil {
					inner := emit
					emit = func(k K, v V) {
						emitted++
						inner(k, v)
					}
				}
				var taskHook func(int)
				if hk := cfg.Hooks; hk != nil {
					taskHook = hk.MapTask
					if hk.MapEmit != nil {
						inner := emit
						emit = func(k K, v V) {
							hk.MapEmit(w)
							inner(k, v)
						}
					}
				}
				tw.SetState(telemetry.StateWorking)
				for !abort.Load() && ctx.Err() == nil {
					i := int(next.Add(1)) - 1
					if i >= len(tasks) {
						return
					}
					if taskHook != nil {
						taskHook(w)
					}
					end := track.Span("task")
					for s := tasks[i][0]; s < tasks[i][1]; s++ {
						spec.Map(spec.Splits[s], emit)
					}
					end()
					folded += emitted
					tw.AddTask(emitted)
					tw.StoreFolded(folded)
					emitted = 0
				}
			})
		}(w, containers[w])
	}
	wg.Wait()
	res.Phases.MapCombine = time.Since(t0)
	// The pre-reduce hook runs before the error checks so a cancellation
	// injected there is still honored by the ctx check below.
	cfg.Hooks.FirePreReduce()
	if err := firstErr.Get(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// --- Reduce: tree-merge containers, then parallel reduce. ---
	t0 = time.Now()
	merged, err := mr.MergeContainers(containers, spec.Combine)
	if err != nil {
		return nil, err
	}
	pairs, err := mr.ReduceAll(merged, spec.Reduce, workers)
	if err != nil {
		return nil, err
	}
	res.Phases.Reduce = time.Since(t0)

	// --- Merge: parallel sort over the worker pool. ---
	t0 = time.Now()
	mr.SortPairsParallel(pairs, spec.Less, workers)
	res.Phases.Merge = time.Since(t0)

	res.Pairs = pairs
	return res, nil
}
