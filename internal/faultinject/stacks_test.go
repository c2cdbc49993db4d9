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

// TestWorkerStacksSeeEveryEngine: the leak checker is only as good as its
// list of worker sites, so each way the runtime runs Map must show up in
// WorkerStacks while a worker is parked inside it: a RAMR run that ships
// nothing (fused workers), a RAMR run on a plan that ships pairs (ring
// mappers, and the combiner slot they feed), Phoenix++, and a stream
// session (fused workers). Once released, each run ends and leaves no worker
// behind.
func TestWorkerStacksSeeEveryEngine(t *testing.T) {
	batch := func(run func(context.Context, *mr.Spec[int, int, int, int], mr.Config) (*mr.Result[int, int], error), ship bool) func(mr.Config, func(int, func(int, int))) error {
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
	session := func(cfg mr.Config, mapFn func(int, func(int, int))) error {
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
	for _, row := range []struct {
		name string
		run  func(mr.Config, func(int, func(int, int))) error
		// also names a frame some other worker's stack must show.
		also string
	}{
		{"ramr/fused", batch(core.RunContext[int, int, int, int], false), ""},
		{"ramr/sibling", batch(core.RunContext[int, int, int, int], true), "ramr/internal/core.(*Pool[...]).startSlots"},
		{"phoenix", batch(core.RunPhoenixContext[int, int, int, int], false), ""},
		{"stream", session, ""},
	} {
		cfg := mr.DefaultConfig()
		cfg.Mappers, cfg.Combiners = 2, 1
		cfg.Machine = topology.Flat(4)
		cfg.Pin = mr.PinNone
		var once sync.Once
		parked, release := make(chan struct{}), make(chan struct{})
		mapFn := func(s int, emit func(int, int)) {
			parkInMap(&once, parked, release)
			emit(s, 1)
		}
		done := make(chan error, 1)
		go func() { done <- row.run(cfg, mapFn) }()
		within(parked)
		found := map[string]bool{}
		for _, block := range faultinject.WorkerStacks() {
			for _, frame := range []string{"faultinject_test.parkInMap", row.also} {
				if frame != "" && strings.Contains(block, frame) {
					found[frame] = true
				}
			}
		}
		close(release)
		if err := <-done; err != nil {
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
