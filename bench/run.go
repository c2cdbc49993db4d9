package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// runCtx is one run of one workload: its seed, its size and where its
// measurements go.
type runCtx struct {
	root    string
	seed    int64
	seconds int
	// smoke shrinks the workload to 1 round / 10 operations with a
	// single set-up: it checks that the machinery works, not speed.
	smoke bool
	// tr is nil on the untraced pass that yields the end-to-end
	// metrics; the traced pass yields only per-layer metrics.
	tr  *tracer
	res *result
	// makespan and lanes are set by the workload: first operation issued
	// to last verified result, and how many clients issued load.
	makespan time.Duration
	lanes    int
}

// clients is the number of load connections: C = min(nproc, 4).
func clients() int { return min(runtime.NumCPU(), 4) }

// sized returns how many operations a workload issues: fixed work, not
// fixed time — perSecond is calibrated so that the list takes about
// rc.seconds on the 2-core reference host.
func (rc *runCtx) sized(perSecond float64, smokeN int) int {
	if rc.smoke {
		return smokeN
	}
	return max(1, int(math.Round(perSecond*float64(rc.seconds))))
}

// warmups is the number of untimed operations or rounds run first.
func (rc *runCtx) warmups() int {
	if rc.smoke {
		return 0
	}
	return 3
}

// timedSetup runs build five times (once in a smoke run), keeps the
// last product and reports the median as setup_s: a single set-up on a
// shared host is too noisy to gate on, and the first one in a fresh
// checkout compiles the daemons.
func timedSetup[T any](rc *runCtx, build func() (T, error), discard func(T)) (T, error) {
	reps := 5
	if rc.smoke {
		reps = 1
	}
	var (
		last  T
		times []float64
	)
	for i := 0; i < reps; i++ {
		if i > 0 {
			discard(last)
		}
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	rc.res.setTiming("setup_s", times, 0.5)
	return last, nil
}

// setupRamrd is the set-up of the single-daemon workloads: build the
// daemons, boot one default-flag ramrd and wait for /readyz.
func setupRamrd(rc *runCtx) (*daemon, error) {
	return timedSetup(rc, func() (*daemon, error) {
		if err := buildDaemons(rc.root); err != nil {
			return nil, err
		}
		return startDaemon(rc.root, "ramrd")
	}, (*daemon).stop)
}

// subSeed derives a stream of independent seeds from the run seed.
func subSeed(seed int64, stream string, i int) int64 {
	x := uint64(seed)
	for _, c := range []byte(stream) {
		x = (x ^ uint64(c)) * 0x100000001b3
	}
	x += uint64(i) * 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1) // non-negative: seeds travel through JSON and flags
}

// runWorkload executes one pass of one workload and returns its result.
// An error means the benchmark itself could not run; failed operations
// are counted in the result instead.
func runWorkload(root string, w workloadDef, seed int64, seconds int, traced, smoke bool, tracePath string) (*result, error) {
	rc := &runCtx{root: root, seed: seed, seconds: seconds, smoke: smoke,
		res: newResult(w.Name, seed, seconds, traced)}
	if traced {
		rc.tr = newTracer()
	}
	if err := w.run(rc); err != nil {
		return rc.res, fmt.Errorf("%s: %w", w.Name, err)
	}
	rc.res.set("failed_share", rc.res.failedShare())
	if traced {
		runProbes(rc)
		lt := rc.tr.table()
		rc.res.LayerSelfS = map[string]float64{operationsKey: lt.rootTotal.Seconds()}
		for layer, d := range lt.selfByLayer {
			rc.res.LayerSelfS[layer] = d.Seconds()
		}
		if lt.ops > 0 && (lt.coverMin < 0.95 || lt.coverMax > 1.05) {
			rc.res.fail("self times cover %.3f..%.3f of an operation's span, want within 5%%", lt.coverMin, lt.coverMax)
		}
		if rc.makespan > 0 {
			// Share of the clients' time spent on calls made only because
			// tracing is on; the makespan difference between the two
			// passes is in the trajectory file.
			rc.res.set("bench.trace_overhead_share", float64(rc.tr.traceOnly)/float64(rc.makespan)/float64(max(1, rc.lanes)))
		}
		rc.res.Notes["bench.trace_overhead_share"] = fmt.Sprintf("%d operations traced, self times cover %.3f..%.3f of each span", lt.ops, lt.coverMin, lt.coverMax)
		if tracePath != "" {
			if err := rc.tr.writeChrome(tracePath, w.Name); err != nil {
				return rc.res, err
			}
		}
	}
	rc.res.fillAliases()
	return rc.res, nil
}
