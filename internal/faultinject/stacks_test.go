package faultinject_test

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"ramr/internal/core"
	"ramr/internal/faultinject"
	"ramr/internal/mr"
	"ramr/internal/stream"
	"ramr/internal/telemetry"
	"ramr/internal/topology"
)

// parkInMap holds the Map call that reaches it first until release is
// closed, announcing it on parked; every later call returns at once.
//
//go:noinline
func parkInMap(once *sync.Once, parked chan<- struct{}, release <-chan struct{}) {
	once.Do(func() {
		close(parked)
		within(release)
	})
}

// runner runs one job on cfg with mapFn as its Map.
type runner func(cfg mr.Config, mapFn func(int, func(int, int))) error

// batch runs a small batch job through run, on a plan that ships pairs when
// ship is set.
func batch(run func(context.Context, *mr.Spec[int, int, int, int], mr.Config) (*mr.Result[int, int], error), ship bool) runner {
	return func(cfg mr.Config, mapFn func(int, func(int, int))) error {
		spec := sweepSpec(8, 50)
		spec.Map = mapFn
		if ship {
			cfg = shipping(cfg)
		}
		_, err := run(context.Background(), spec, cfg)
		return err
	}
}

// session runs a one-chunk stream session to its Close.
func session(cfg mr.Config, mapFn func(int, func(int, int))) error {
	spec := sweepSpec(0, 0)
	spec.Map = mapFn
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

// engines are the ways the runtime runs Map: a RAMR run that ships nothing
// (fused workers), a RAMR run on a plan that ships pairs (ring mappers, and
// the combiner slot they feed), Phoenix++, and a stream session (fused
// workers). also names a frame some worker's stack other than the parked
// one must show.
var engines = []struct {
	name string
	run  runner
	also string
}{
	{"ramr/fused", batch(core.RunContext[int, int, int, int], false), ""},
	{"ramr/sibling", batch(core.RunContext[int, int, int, int], true), "ramr/internal/core.(*Pool[...]).startSlots"},
	{"phoenix", batch(core.RunPhoenixContext[int, int, int, int], false), ""},
	{"stream", session, ""},
}

// stacksConfig is the small unpinned configuration the stack tests run.
func stacksConfig() mr.Config {
	cfg := mr.DefaultConfig()
	cfg.Mappers, cfg.Combiners = 2, 1
	cfg.Machine = topology.Flat(4)
	cfg.Pin = mr.PinNone
	return cfg
}

// whileParked runs run on cfg with the first Map call held, calls look
// while it is held, then releases it and returns the run's error.
func whileParked(cfg mr.Config, run runner, look func()) error {
	var once sync.Once
	parked, release := make(chan struct{}), make(chan struct{})
	mapFn := func(s int, emit func(int, int)) {
		parkInMap(&once, parked, release)
		emit(s, 1)
	}
	done := make(chan error, 1)
	go func() { done <- run(cfg, mapFn) }()
	within(parked)
	look()
	close(release)
	return <-done
}

// TestWorkerStacksSeeEveryEngine: the leak checker is only as good as its
// list of worker sites, so each way the runtime runs Map (engines) must
// show up in WorkerStacks while a worker is parked inside it. Once
// released, each run ends and leaves no worker behind.
func TestWorkerStacksSeeEveryEngine(t *testing.T) {
	for _, row := range engines {
		found := map[string]bool{}
		err := whileParked(stacksConfig(), row.run, func() {
			for _, block := range faultinject.WorkerStacks() {
				for _, frame := range []string{"faultinject_test.parkInMap", row.also} {
					if frame != "" && strings.Contains(block, frame) {
						found[frame] = true
					}
				}
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		if !found["faultinject_test.parkInMap"] {
			t.Errorf("%s: the worker parked in Map is not among WorkerStacks", row.name)
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
		err := whileParked(cfg, row.run, func() { running = faultinject.StacksWith("created by ramr/internal/telemetry.") })
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
