package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"ramr/internal/container"
	"ramr/internal/memo"
	"ramr/internal/sched"
	"ramr/internal/spsc"
	"ramr/internal/topology"
)

// Probes time single layers from outside, through the pinned public
// functions listed in bench/README.md. They run in every traced pass:
// their inputs are fixed, so they say how fast the layer is on this
// host whatever the workload.

// runProbes fills the probe metrics of a traced result. Each probe
// repeats and reports the median, because one short timing on a shared
// host is mostly noise.
func runProbes(rc *runCtx) {
	res := rc.res
	reps := 5
	if rc.smoke {
		reps = 1
	}
	repeat := func(name string, probe func() float64) {
		var xs []float64
		for i := 0; i < reps; i++ {
			xs = append(xs, probe())
		}
		res.setTiming(name, xs, 0.5)
	}
	repeat("spsc.elem_ns", probeSPSC)
	for _, kind := range containerKinds {
		for _, dist := range keyDists {
			repeat("container.update_ns."+kind+"."+dist, func() float64 { return probeContainerUpdate(kind, dist) })
		}
	}
	repeat("container.merge_ns_per_key", probeContainerMerge)
	repeat("memo.get_ns", probeMemoGet)
	for _, depth := range []int{0, 8} {
		xs, err := probeSchedGrant(depth, 40*reps)
		if err != nil {
			res.fail("sched probe at depth %d: %v", depth, err)
			continue
		}
		res.setTiming(fmt.Sprintf("sched.submit_grant_s.depth%d", depth), xs, 0.5)
	}
}

const (
	probeSlab    = 64 // PushBatch slab, the engine's default EmitBatch
	probeElems   = 1 << 20
	probeKeys    = 4096
	probeBatch   = 1000 // UpdateBatch block, the engine's default BatchSize
	probeUpdates = 1 << 20
)

// probeSPSC moves probeElems elements through one ring with one
// producer (PushBatch of 64) and one consumer (ConsumeBatch) and returns
// nanoseconds per element.
func probeSPSC() float64 {
	q := spsc.MustNew[container.KV[int, int]](spsc.DefaultCapacity, spsc.WaitSleep)
	var wg sync.WaitGroup
	wg.Add(1)
	t0 := time.Now()
	go func() {
		defer wg.Done()
		slab := make([]container.KV[int, int], probeSlab)
		for sent := 0; sent < probeElems; sent += probeSlab {
			for i := range slab {
				slab[i] = container.KV[int, int]{K: sent + i, V: 1}
			}
			q.PushBatch(slab)
		}
		q.Close()
	}()
	sum := 0
	fold := func(seg []container.KV[int, int]) {
		for _, kv := range seg {
			sum += kv.V
		}
	}
	for got := 0; got < probeElems; {
		n := q.ConsumeBatch(probeSlab, q.Closed(), fold)
		if n == 0 {
			runtime.Gosched() // an unyielding empty poll burns a whole slice on a small host
		}
		got += n
	}
	wg.Wait()
	if sum != probeElems {
		return 0
	}
	return float64(time.Since(t0).Nanoseconds()) / probeElems
}

// probeKeysFor draws the probe's key stream: uniform, or Zipf with the
// exponent WC's synthetic corpus uses.
func probeKeysFor(dist string, n int) []int {
	rng := rand.New(rand.NewSource(1))
	keys := make([]int, n)
	if dist == "zipf" {
		z := rand.NewZipf(rng, 1.2, 1, probeKeys-1)
		for i := range keys {
			keys[i] = int(z.Uint64())
		}
		return keys
	}
	for i := range keys {
		keys[i] = rng.Intn(probeKeys)
	}
	return keys
}

func newProbeContainer(kind string) container.Container[int, int] {
	switch kind {
	case "fixedarray":
		return container.NewFixedArray[int](probeKeys)
	case "fixedhash":
		return container.NewFixedHash[int, int](probeKeys, container.HashInt)
	default:
		return container.NewHash[int, int]()
	}
}

func add(a, b int) int { return a + b }

// probeContainerUpdate folds probeUpdates pairs into one container in
// UpdateBatch blocks and returns nanoseconds per pair.
func probeContainerUpdate(kind, dist string) float64 {
	keys := probeKeysFor(dist, probeUpdates)
	kvs := make([]container.KV[int, int], probeBatch)
	c := newProbeContainer(kind)
	t0 := time.Now()
	for lo := 0; lo < len(keys); lo += probeBatch {
		block := kvs[:min(probeBatch, len(keys)-lo)]
		for i := range block {
			block[i] = container.KV[int, int]{K: keys[lo+i], V: 1}
		}
		c.UpdateBatch(block, add)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(len(keys))
}

// probeContainerMerge merges a hash container of 50 000 keys into
// another holding the same keys — the shape of the engines' merge phase
// and of MergePartials — and returns nanoseconds per key.
func probeContainerMerge() float64 {
	const n = 50_000
	dst, src := container.NewHash[int, int](), container.NewHash[int, int]()
	for k := 0; k < n; k++ {
		dst.Update(k, 1, add)
		src.Update(k, 1, add)
	}
	t0 := time.Now()
	container.Merge[int, int](dst, src, add)
	return float64(time.Since(t0).Nanoseconds()) / n
}

// probeMemoGet times hits on a cache of 1 024 entries.
func probeMemoGet() float64 {
	const entries, gets = 1024, 1 << 18
	c := memo.NewCache(0)
	keys := make([]string, entries)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i)
		c.Put(keys[i], i, 1024)
	}
	t0 := time.Now()
	for i := 0; i < gets; i++ {
		if _, ok := c.Get(keys[i%entries]); !ok {
			return 0
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / gets
}

// probeSchedGrant measures submit→grant on a one-CPU scheduler: at
// depth 0, Submit of a no-op job to the start of its Run; at depth d, a
// blocker holds the CPU with d no-op jobs queued ahead of the probe job,
// and the time runs from the blocker's release to the probe's Run — d+1
// dispatch cycles.
func probeSchedGrant(depth, reps int) ([]float64, error) {
	s, err := sched.New(sched.Config{Machine: topology.Flat(1), MaxQueued: depth + 2})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	noop := func(context.Context, []int) error { return nil }
	var out []float64
	for r := 0; r < reps; r++ {
		var from time.Time
		release := make(chan struct{})
		var jobs []*sched.Job
		if depth > 0 {
			b, err := s.Submit(sched.JobSpec{Name: "blocker", Priority: sched.PriorityNormal,
				Run: func(context.Context, []int) error { <-release; return nil }})
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, b)
			for i := 0; i < depth; i++ {
				j, err := s.Submit(sched.JobSpec{Name: "noop", Priority: sched.PriorityNormal, Run: noop})
				if err != nil {
					return nil, err
				}
				jobs = append(jobs, j)
			}
		}
		started := make(chan time.Time, 1)
		if depth == 0 {
			from = time.Now()
		}
		p, err := s.Submit(sched.JobSpec{Name: "probe", Priority: sched.PriorityNormal,
			Run: func(context.Context, []int) error { started <- time.Now(); return nil }})
		if err != nil {
			return nil, err
		}
		if depth > 0 {
			from = time.Now()
			close(release)
		}
		at := <-started
		for _, j := range append(jobs, p) {
			if err := j.Wait(ctx); err != nil {
				return nil, err
			}
		}
		out = append(out, at.Sub(from).Seconds())
	}
	return out, s.Drain(ctx)
}
