package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ramr/internal/mr"
	"ramr/internal/telemetry"
	"ramr/internal/topology"
)

// The Phoenix++ arm of the batch body: the tests the baseline engine had
// as a package of its own, plus what makes it a dispatch policy rather
// than a second engine.

func phoenixConfig() mr.Config {
	c := mr.DefaultConfig()
	c.Mappers = 2
	c.Combiners = 2
	c.Machine = topology.Flat(4)
	c.Pin = mr.PinNone
	return c
}

func runPhoenix(spec *mr.Spec[int, int, int, int], cfg mr.Config) (*mr.Result[int, int], error) {
	return RunPhoenixContext(context.Background(), spec, cfg)
}

func TestPhoenixRunCorrectness(t *testing.T) {
	cfg := phoenixConfig()
	cfg.Telemetry = telemetry.New()
	res, err := runPhoenix(countSpec(30, 20, 11), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 11 {
		t.Fatalf("%d keys, want 11", len(res.Pairs))
	}
	total := 0
	for i, p := range res.Pairs {
		if p.Key != i {
			t.Fatalf("not sorted: %v", res.Pairs)
		}
		total += p.Value
	}
	if total != 600 {
		t.Fatalf("total = %d", total)
	}
	// The fused engine never touches queues, and folds every pair in place.
	if tot := res.Telemetry.Totals; res.QueueStats != (mr.QueueStats{}) || tot.Emitted != 600 || tot.Combined != 600 {
		t.Fatalf("queue stats %+v, totals %+v; want no queue and all 600 pairs folded in place", res.QueueStats, tot)
	}
	if res.Phases.MapCombine <= 0 {
		t.Fatal("map-combine phase not timed")
	}
}

func TestPhoenixRunValidation(t *testing.T) {
	bad := phoenixConfig()
	bad.TaskSize = 0
	if _, err := runPhoenix(countSpec(4, 4, 4), bad); err == nil {
		t.Fatal("invalid config accepted")
	}
	s := countSpec(4, 4, 4)
	s.Combine = nil
	if _, err := runPhoenix(s, phoenixConfig()); err == nil {
		t.Fatal("invalid spec accepted")
	}
	// Phoenix++ pins nothing, but a grant must still name CPUs of the
	// machine.
	foreign := phoenixConfig()
	foreign.CPUGrant = []int{9}
	if _, err := runPhoenix(countSpec(4, 4, 4), foreign); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("grant outside the machine: err = %v", err)
	}
}

func TestPhoenixEmptyInput(t *testing.T) {
	res, err := runPhoenix(countSpec(0, 5, 5), phoenixConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 0 {
		t.Fatal("expected empty output")
	}
}

func TestPhoenixReduceTransforms(t *testing.T) {
	s := countSpec(10, 10, 4)
	s.Reduce = func(k, v int) int { return v * 1000 }
	res, err := runPhoenix(s, phoenixConfig())
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range res.Pairs {
		total += p.Value
	}
	if total != 100*1000 {
		t.Fatalf("total = %d", total)
	}
}

func TestPhoenixDeterministic(t *testing.T) {
	a, err := runPhoenix(countSpec(20, 20, 9), phoenixConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := runPhoenix(countSpec(20, 20, 9), phoenixConfig())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a.Pairs) != fmt.Sprint(b.Pairs) {
		t.Fatalf("output varies: %v vs %v", a.Pairs, b.Pairs)
	}
}

// TestPhoenixDispatch pins down the policy: whatever the grant and the
// machine's locality groups, every worker folds where it maps, takes one
// task at a time from the one shared deque and never steals.
func TestPhoenixDispatch(t *testing.T) {
	for _, grant := range [][]int{nil, {0}} {
		cfg := phoenixConfig()
		cfg.Machine = multiSocket(4)
		cfg.Pin = mr.PinRAMR // ignored: Phoenix++ runs unpinned
		cfg.CPUGrant = grant
		cfg.TaskSize = 1
		cfg.Telemetry = telemetry.New()
		res, err := runPhoenix(countSpec(64, 10, 13), cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Steal
		if st.LocalTasks != 64 || st.LocalBatches != 64 || st.SocketTasks+st.RemoteTasks+st.RemoteExecuted != 0 {
			t.Fatalf("grant %v: steal books %+v; want 64 single local takes and no steal", grant, st)
		}
		if tot := res.Telemetry.Totals; res.QueueStats.Pushes != 0 || tot.Emitted != 640 || tot.Combined != 640 {
			t.Fatalf("grant %v: %d pushed, totals %+v; want every pair folded in place", grant, res.QueueStats.Pushes, tot)
		}
	}
}

func TestPhoenixMapPanicBecomesError(t *testing.T) {
	s := countSpec(100, 10, 5)
	s.Map = func(int, func(int, int)) { panic("map exploded") }
	_, err := runPhoenix(s, phoenixConfig())
	var pe *mr.PanicError
	if !errors.As(err, &pe) || pe.Engine != "phoenix" || !strings.Contains(pe.Worker, "worker") {
		t.Fatalf("err = %#v, want *mr.PanicError from a phoenix worker", err)
	}
	assertNoWorkers(t)
}

func TestPhoenixCombinePanicBecomesError(t *testing.T) {
	s := countSpec(100, 10, 5)
	var n atomic.Int64 // Combine runs concurrently on the fused workers
	s.Combine = func(a, b int) int {
		if n.Add(1) > 50 {
			panic("combine exploded")
		}
		return a + b
	}
	_, err := runPhoenix(s, phoenixConfig())
	var pe *mr.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %#v, want *mr.PanicError", err)
	}
	assertNoWorkers(t)
}

func TestPhoenixReducePanicBecomesError(t *testing.T) {
	s := countSpec(20, 10, 5)
	s.Reduce = func(k, v int) int { panic("reduce exploded") }
	_, err := runPhoenix(s, phoenixConfig())
	if err == nil || !strings.Contains(err.Error(), "reduce") {
		t.Fatalf("reduce panic not reported: %v", err)
	}
	assertNoWorkers(t)
}

func TestPhoenixRunContextCancellation(t *testing.T) {
	s := countSpec(400, 50, 7)
	slowMap := s.Map
	s.Map = func(sp int, emit func(int, int)) {
		time.Sleep(200 * time.Microsecond)
		slowMap(sp, emit)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(3 * time.Millisecond)
		cancel()
	}()
	_, err := RunPhoenixContext(ctx, s, phoenixConfig())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	assertNoWorkers(t)
}
