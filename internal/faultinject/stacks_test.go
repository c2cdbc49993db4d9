package faultinject_test

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ramr/internal/container"
	"ramr/internal/core"
	"ramr/internal/faultinject"
	"ramr/internal/mr"
	"ramr/internal/stream"
	"ramr/internal/telemetry"
	"ramr/internal/topology"
)

// park holds the calls that reach it until release is closed, announcing
// on parked once n of them are held; every later call returns at once.
//
//go:noinline
func park(reached *atomic.Int32, n int32, parked chan<- struct{}, release <-chan struct{}) {
	switch k := reached.Add(1); {
	case k == n:
		close(parked)
		within(release)
	case k < n:
		within(release)
	}
}

// runner runs one job on cfg, calling hold from the user function it
// parks in.
type runner func(cfg mr.Config, hold func()) error

// batch runs a small batch job through run, holding its Map, on a plan
// that ships pairs when ship is set.
func batch(run func(context.Context, *mr.Spec[int, int, int, int], mr.Config) (*mr.Result[int, int], error), ship bool) runner {
	return func(cfg mr.Config, hold func()) error {
		spec := sweepSpec(8, 50)
		spec.Map = holdingMap(hold)
		if ship {
			cfg = shipping(cfg)
		}
		_, err := run(context.Background(), spec, cfg)
		return err
	}
}

// holdingMap is a Map that calls hold, then emits its split once.
func holdingMap(hold func()) func(int, func(int, int)) {
	return func(s int, emit func(int, int)) {
		hold()
		emit(s, 1)
	}
}

// session runs a one-chunk stream session to its Close, holding its Map.
func session(cfg mr.Config, hold func()) error {
	spec := sweepSpec(0, 0)
	spec.Map = holdingMap(hold)
	cfg.Stream = &mr.StreamSpec{Window: 1}
	p, err := stream.New(spec, cfg)
	if err != nil {
		return err
	}
	if err := p.Start(); err != nil {
		return err
	}
	if _, err := p.Append(stream.Chunk[int]{Ts: 0, Splits: []int{0, 1, 2, 3}}); err != nil {
		return err
	}
	return p.Close(context.Background())
}

// reduceAboveGrain runs a batch job whose output is two grains of keys, so
// its reduce runs in two shares, holding its Reduce.
func reduceAboveGrain(cfg mr.Config, hold func()) error {
	const splits = 8
	spec := sweepSpec(splits, 0)
	spec.Map = func(s int, emit func(int, int)) {
		for k := s * 2 * mr.Grain / splits; k < (s+1)*2*mr.Grain/splits; k++ {
			emit(k, 1)
		}
	}
	spec.NewContainer = func() container.Container[int, int] { return container.NewHash[int, int]() }
	spec.Reduce = func(k, v int) int {
		hold()
		return v
	}
	_, err := core.RunContext(context.Background(), spec, cfg)
	return err
}

// engine is one way of running a job: run holds the first holds calls of
// its user function, and also names a frame some worker's stack other than
// the parked one must show.
type engine struct {
	name  string
	run   runner
	holds int32
	also  string
}

// engines are the ways the runtime runs Map: a RAMR run that ships nothing
// (fused workers), a RAMR run on a plan that ships pairs (ring mappers, and
// the combiner slot they feed), Phoenix++, and a stream session (fused
// workers). Each holds its first Map call.
var engines = []engine{
	{"ramr/fused", batch(core.RunContext[int, int, int, int], false), 1, ""},
	{"ramr/sibling", batch(core.RunContext[int, int, int, int], true), 1, "ramr/internal/core.(*Pool[...]).startSlots"},
	{"phoenix", batch(core.RunPhoenixContext[int, int, int, int], false), 1, ""},
	{"stream", session, 1, ""},
}

// stacksConfig is the small unpinned configuration the stack tests run.
func stacksConfig() mr.Config {
	cfg := mr.DefaultConfig()
	cfg.Mappers, cfg.Combiners = 2, 1
	cfg.Machine = topology.Flat(4)
	cfg.Pin = mr.PinNone
	return cfg
}

// whileParked runs run on cfg until holds of its held calls are parked,
// calls look while they are, then releases them and returns the run's
// error.
func whileParked(cfg mr.Config, run runner, holds int32, look func()) error {
	var reached atomic.Int32
	parked, release := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- run(cfg, func() { park(&reached, holds, parked, release) }) }()
	within(parked)
	look()
	close(release)
	return <-done
}

// TestWorkerStacksSeeEveryEngine: the leak checker is only as good as its
// list of worker sites, so each way the runtime runs Map (engines) must
// show up in WorkerStacks while a worker is parked inside it, and so must
// a reduce that fans out: with both its shares parked in Reduce, the share
// on a goroutine of mr.ForEach shows too. Once released, each run ends and
// leaves no worker behind.
func TestWorkerStacksSeeEveryEngine(t *testing.T) {
	rows := append(engines[:len(engines):len(engines)],
		engine{"reduce above the grain", reduceAboveGrain, 2, "created by ramr/internal/mr.ForEach"})
	for _, row := range rows {
		found := map[string]bool{}
		err := whileParked(stacksConfig(), row.run, row.holds, func() {
			for _, block := range faultinject.WorkerStacks() {
				for _, frame := range []string{"faultinject_test.park(", row.also} {
					if frame != "" && strings.Contains(block, frame) {
						found[frame] = true
					}
				}
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		if !found["faultinject_test.park("] {
			t.Errorf("%s: the parked worker is not among WorkerStacks", row.name)
		}
		if row.also != "" && !found[row.also] {
			t.Errorf("%s: no worker stack shows %s", row.name, row.also)
		}
		if leaked := faultinject.AwaitNoWorkers(10 * time.Second); len(leaked) > 0 {
			t.Fatalf("%s: %d leaked worker goroutines:\n%s", row.name, len(leaked), leaked[0])
		}
	}
}

// TestTelemetryStartsNoGoroutine: a Telemetry is a handle on its run's
// ledger, not a reader running beside the run. While each engine's run
// with Config.Telemetry set is live, a worker parked in Map, no goroutine
// was created by the telemetry package (workers call into it to book, so a
// frame of it alone proves nothing); the run's report is still built from
// its ledger.
func TestTelemetryStartsNoGoroutine(t *testing.T) {
	for _, row := range engines {
		cfg := stacksConfig()
		tel := telemetry.New()
		cfg.Telemetry = tel
		var running []string
		err := whileParked(cfg, row.run, row.holds, func() { running = faultinject.StacksWith("created by ramr/internal/telemetry.") })
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		if len(running) > 0 {
			t.Errorf("%s: telemetry started %d goroutines during the run:\n%s", row.name, len(running), running[0])
		}
		if rep := tel.EndRun(nil); rep.Totals.Tasks == 0 || rep.Totals.Emitted != rep.Totals.Combined {
			t.Errorf("%s: report totals %+v, want the run's tasks and every emitted pair combined", row.name, rep.Totals)
		}
	}
}
