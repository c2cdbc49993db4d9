package ramr_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"ramr"
	"ramr/internal/faultinject"
)

// TestSchedulerConcurrentJobs runs three mixed-priority jobs through the
// public Scheduler API on a synthetic 56-CPU machine and checks typed
// results, disjoint CPU grants and engine mixing (RAMR + Phoenix).
func TestSchedulerConcurrentJobs(t *testing.T) {
	sc, err := ramr.NewScheduler(ramr.SchedulerConfig{Machine: ramr.HaswellServer(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ramr.DefaultConfig()
	cfg.Pin = ramr.PinNone // grants name CPUs the 1-CPU CI host lacks

	want := func(t *testing.T, res *ramr.Result[string, int]) {
		t.Helper()
		total := 0
		for _, p := range res.Pairs {
			total += p.Value
		}
		if total != 8*200 {
			t.Fatalf("total word count = %d, want %d", total, 8*200)
		}
	}

	// The jobs are sub-millisecond: without the gate the first could finish,
	// and free its CPUs for reuse, before the third is even submitted. Every
	// map call waits until all three hold their grants.
	gate := make(chan struct{})
	gated := func() *ramr.Spec[string, string, int, int] {
		spec := wcSpec(8)
		count := spec.Map
		spec.Map = func(s string, emit func(string, int)) {
			<-gate
			count(s, emit)
		}
		return spec
	}
	h1, err := ramr.Submit(sc, gated(), cfg, ramr.SubmitOptions{Priority: ramr.PriorityHigh, MaxCPUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := ramr.Submit(sc, gated(), cfg, ramr.SubmitOptions{Priority: ramr.PriorityNormal, MaxCPUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	h3, err := ramr.Submit(sc, gated(), cfg, ramr.SubmitOptions{Priority: ramr.PriorityLow, MaxCPUs: 8, Phoenix: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*ramr.JobHandle[string, int]{h1, h2, h3} {
		if h.Status().Started.IsZero() {
			t.Fatalf("job %d not started with the machine far wider than three 8-CPU grants", h.ID())
		}
	}
	close(gate)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, h := range []*ramr.JobHandle[string, int]{h1, h2, h3} {
		res, err := h.Wait(ctx)
		if err != nil {
			t.Fatalf("job %d: %v", h.ID(), err)
		}
		want(t, res)
	}

	// Grants were disjoint: with the machine far wider than the three
	// 8-CPU jobs, all three ran concurrently on separate CPU sets.
	seen := map[int]int{}
	for _, h := range []*ramr.JobHandle[string, int]{h1, h2, h3} {
		st := h.Status()
		if len(st.Grant) == 0 {
			t.Fatalf("job %d has no grant", st.ID)
		}
		for _, c := range st.Grant {
			if prev, dup := seen[c]; dup {
				t.Fatalf("CPU %d in grants of jobs %d and %d", c, prev, st.ID)
			}
			seen[c] = st.ID
		}
	}

	if st := sc.Stats(); st.Finished != 3 || st.InUse != 0 {
		t.Fatalf("stats = %+v, want Finished 3 InUse 0", st)
	}
	if leaked := faultinject.AwaitNoWorkers(2 * time.Second); len(leaked) > 0 {
		t.Fatalf("%d goroutines leaked after scheduled runs", len(leaked))
	}
}

// TestJobHandleTrace checks the public lifecycle-trace surface: after a
// scheduled job finishes, Trace() serves a Chrome-trace JSON document
// whose lifecycle spans cover queue wait, grant allocation (CPU set as
// span args) and the execution, with worker lanes stitched below.
func TestJobHandleTrace(t *testing.T) {
	sc, err := ramr.NewScheduler(ramr.SchedulerConfig{Machine: ramr.HaswellServer(), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ramr.DefaultConfig()
	cfg.Pin = ramr.PinNone

	h, err := ramr.Submit(sc, wcSpec(8), cfg, ramr.SubmitOptions{Name: "traced", MaxCPUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := h.Trace().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	spans := map[string]map[string]any{}
	for _, ev := range events {
		if ev["ph"] == "X" {
			spans[ev["name"].(string)] = ev
		}
	}
	for _, want := range []string{"traced", "queue-wait", "grant-alloc", "execute"} {
		if _, ok := spans[want]; !ok {
			t.Fatalf("trace missing span %q", want)
		}
	}
	if args, _ := spans["traced"]["args"].(map[string]any); args == nil ||
		int(args["job_id"].(float64)) != h.ID() || args["status"] != "done" {
		t.Fatalf("root span args = %v, want job_id=%d status=done", spans["traced"]["args"], h.ID())
	}
	ga, _ := spans["grant-alloc"]["args"].(map[string]any)
	if ga == nil || len(ga["cpus"].([]any)) == 0 {
		t.Fatalf("grant-alloc span args = %v, want non-empty cpus", ga)
	}
	// Worker lanes from the attached collector: at least one thread_name
	// metadata row besides the lifecycle lane.
	lanes := 0
	for _, ev := range events {
		if ev["ph"] == "M" {
			lanes++
		}
	}
	if lanes < 2 {
		t.Fatalf("%d lanes in trace, want lifecycle + worker lanes", lanes)
	}
}

// exportTrace renders tr and checks the shape every document has, live or
// settled: a JSON array, thread-name metadata first, then non-decreasing
// ts. It returns the lane names and the task spans recorded on each.
func exportTrace(t *testing.T, tr *ramr.JobTrace) (lanes map[string]bool, tasks map[string]uint64) {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	lane := map[float64]string{}
	lanes, tasks = map[string]bool{}, map[string]uint64{}
	inMeta, lastTs := true, -1.0
	for i, ev := range events {
		if ev["ph"] == "M" {
			if !inMeta {
				t.Fatalf("event %d: metadata after timeline events", i)
			}
			name := ev["args"].(map[string]any)["name"].(string)
			lane[ev["tid"].(float64)], lanes[name] = name, true
			continue
		}
		inMeta = false
		ts := ev["ts"].(float64)
		if ts < lastTs {
			t.Fatalf("event %d (%v): ts %v < previous %v", i, ev["name"], ts, lastTs)
		}
		lastTs = ts
		if ev["ph"] == "X" && ev["name"] == "task" {
			tasks[lane[ev["tid"].(float64)]]++
		}
	}
	return lanes, tasks
}

// TestJobHandleLiveTrace exports a scheduled job's trace while the job
// runs — Trace "serves whatever has been recorded so far" — under the race
// detector, then checks that the settled trace lost nothing: a lane for
// every worker that did anything, one task span per task the telemetry
// counted.
func TestJobHandleLiveTrace(t *testing.T) {
	sc, err := ramr.NewScheduler(ramr.SchedulerConfig{Machine: ramr.HaswellServer(), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ramr.DefaultConfig()
	cfg.Pin = ramr.PinNone
	cfg.Telemetry = ramr.NewTelemetry()
	h, err := ramr.Submit(sc, wcSpec(4000), cfg, ramr.SubmitOptions{Name: "live", MaxCPUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	for live := true; live; {
		exportTrace(t, h.Trace())
		st := h.Status().State.String()
		live = st != "done" && st != "canceled"
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	lanes, tasks := exportTrace(t, h.Trace())
	if !lanes["lifecycle"] {
		t.Fatalf("no lifecycle lane; lanes %v", lanes)
	}
	for _, w := range res.Telemetry.Workers {
		name := fmt.Sprintf("%s-%d", w.Role, w.ID)
		if (w.Tasks > 0 || w.Batches > 0) && !lanes[name] {
			t.Errorf("settled trace has no %s lane (worker ran %d tasks, %d batches); lanes %v", name, w.Tasks, w.Batches, lanes)
		}
		if w.Role == "mapper" && tasks[name] != w.Tasks {
			t.Errorf("%s: %d task spans in the settled trace, telemetry counted %d tasks", name, tasks[name], w.Tasks)
		}
	}
}

func TestSchedulerSaturationAndDrain(t *testing.T) {
	sc, err := ramr.NewScheduler(ramr.SchedulerConfig{Machine: ramr.HaswellServer(), MaxQueued: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ramr.DefaultConfig()
	cfg.Pin = ramr.PinNone

	// One job wide enough to hold the whole budget, then fill the
	// 1-deep queue, then overflow it.
	wide, err := ramr.Submit(sc, wcSpec(64), cfg, ramr.SubmitOptions{MinCPUs: sc.Budget(), MaxCPUs: sc.Budget()})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := ramr.Submit(sc, wcSpec(4), cfg, ramr.SubmitOptions{MinCPUs: sc.Budget()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ramr.Submit(sc, wcSpec(4), cfg, ramr.SubmitOptions{}); !errors.Is(err, ramr.ErrSaturated) {
		t.Fatalf("overflow submit err = %v, want ErrSaturated", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Drain must not lose the accepted queued job.
	if _, err := wide.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if res, err := queued.Wait(ctx); err != nil || res == nil {
		t.Fatalf("queued job lost in drain: res=%v err=%v", res, err)
	}
}

// TestFinishedJobHandleReleasesInput: a finished JobHandle the caller
// still holds keeps the typed result, not the job's input — the scheduler
// drops the Run closure (and the Spec it captured) once the job is
// terminal.
func TestFinishedJobHandleReleasesInput(t *testing.T) {
	sc, err := ramr.NewScheduler(ramr.SchedulerConfig{Machine: ramr.HaswellServer(), Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ramr.DefaultConfig()
	cfg.Pin = ramr.PinNone

	freed := make(chan struct{})
	// The 16 MB block is reachable only through the submitted Spec.
	submit := func() *ramr.JobHandle[string, int] {
		input := new([16 << 20]byte)
		runtime.SetFinalizer(input, func(*[16 << 20]byte) { close(freed) })
		spec := wcSpec(8)
		split := spec.Map
		spec.Map = func(s string, emit func(string, int)) {
			if input[len(s)%len(input)] != 0 {
				panic("input block is not zeroed")
			}
			split(s, emit)
		}
		h, err := ramr.Submit(sc, spec, cfg, ramr.SubmitOptions{MaxCPUs: 4})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	h := submit()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
		case <-time.After(10 * time.Millisecond):
			if time.Now().Before(deadline) {
				continue
			}
			t.Fatal("the finished job's handle still pins its input")
		}
		break
	}
	if len(res.Pairs) == 0 || h.Status().State.String() != "done" {
		t.Fatalf("handle lost its result: %d pairs, state %v", len(res.Pairs), h.Status().State)
	}
}
