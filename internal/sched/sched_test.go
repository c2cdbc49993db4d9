package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"ramr/internal/topology"
)

// testMachine is a small two-socket box: 2 sockets x 2 cores x 2 threads
// = 8 logical CPUs, so locality-dense allocation is observable.
func testMachine() *topology.Machine {
	return &topology.Machine{
		Name:           "sched-test",
		Sockets:        2,
		CoresPerSocket: 2,
		ThreadsPerCore: 2,
		Enum:           topology.EnumSMTLast,
		Caches: []topology.CacheLevel{
			{Level: 1, SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8, Scope: topology.ScopePerCore, LatencyCycles: 4},
			{Level: 3, SizeBytes: 8 << 20, LineBytes: 64, Assoc: 16, Scope: topology.ScopePerSocket, LatencyCycles: 40},
		},
		MemLatencyCycles:         200,
		CrossSocketPenaltyCycles: 60,
	}
}

// blockingJob returns a RunFunc that signals started, then blocks until
// release fires or the context is cancelled.
func blockingJob(started chan<- []int, release <-chan struct{}) RunFunc {
	return func(ctx context.Context, grant []int) error {
		if started != nil {
			started <- append([]int(nil), grant...)
		}
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

func TestGrantsDisjointAndWithinBudget(t *testing.T) {
	var mu sync.Mutex
	maxInUse := 0
	sc, err := New(Config{
		Machine: testMachine(),
		Observer: func(e Event) {
			mu.Lock()
			if e.InUse > maxInUse {
				maxInUse = e.InUse
			}
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Budget() != 8 {
		t.Fatalf("budget = %d, want 8", sc.Budget())
	}

	started := make(chan []int, 4)
	release := make(chan struct{})
	var jobs []*Job
	for i := 0; i < 4; i++ {
		j, err := sc.Submit(JobSpec{
			Name:     fmt.Sprintf("j%d", i),
			Priority: PriorityNormal,
			MinCPUs:  2, MaxCPUs: 2,
			Run: blockingJob(started, release),
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	seen := map[int]int{}
	for i := 0; i < 4; i++ {
		grant := <-started
		if len(grant) != 2 {
			t.Fatalf("grant %v, want 2 CPUs", grant)
		}
		for _, c := range grant {
			if prev, dup := seen[c]; dup {
				t.Fatalf("CPU %d granted twice (jobs %d and %d)", c, prev, i)
			}
			seen[c] = i
		}
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, j := range jobs {
		if err := j.Wait(ctx); err != nil {
			t.Fatalf("job %d: %v", j.ID(), err)
		}
	}
	if maxInUse > sc.Budget() {
		t.Fatalf("observed InUse %d > budget %d", maxInUse, sc.Budget())
	}
}

func TestLocalityDenseGrant(t *testing.T) {
	m := testMachine()
	sc, err := New(Config{Machine: m})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan []int, 1)
	release := make(chan struct{})
	j, err := sc.Submit(JobSpec{MinCPUs: 4, MaxCPUs: 4, Run: blockingJob(started, release)})
	if err != nil {
		t.Fatal(err)
	}
	grant := <-started
	groups := map[int]bool{}
	for _, c := range grant {
		g, ok := m.GroupOf(c)
		if !ok {
			t.Fatalf("granted CPU %d not on machine", c)
		}
		groups[g] = true
	}
	// Half the machine fits in one NUMA node; a dense allocator must not
	// straddle both.
	if len(groups) != 1 {
		t.Fatalf("4-CPU grant %v spans %d locality groups, want 1", grant, len(groups))
	}
	close(release)
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestAdmissionSaturation(t *testing.T) {
	sc, err := New(Config{Machine: testMachine(), MaxQueued: 2})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	started := make(chan []int, 1)
	// Occupy the whole budget so everything after queues.
	run, err := sc.Submit(JobSpec{MinCPUs: 8, MaxCPUs: 8, Run: blockingJob(started, release)})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	var queued []*Job
	for i := 0; i < 2; i++ {
		j, err := sc.Submit(JobSpec{MinCPUs: 1, Run: blockingJob(nil, release)})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		queued = append(queued, j)
	}
	if _, err := sc.Submit(JobSpec{MinCPUs: 1, Run: blockingJob(nil, release)}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("over-limit submit: got %v, want ErrSaturated", err)
	}
	st := sc.Stats()
	if st.Queued != 2 || st.Rejected != 1 {
		t.Fatalf("stats = %+v, want Queued 2 Rejected 1", st)
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, j := range append(queued, run) {
		if err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	sc, err := New(Config{Machine: testMachine()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Submit(JobSpec{}); err == nil {
		t.Fatal("nil Run accepted")
	}
	noop := func(ctx context.Context, grant []int) error { return nil }
	if _, err := sc.Submit(JobSpec{MinCPUs: 9, Run: noop}); err == nil {
		t.Fatal("MinCPUs > budget accepted")
	}
	if _, err := sc.Submit(JobSpec{MinCPUs: 4, MaxCPUs: 2, Run: noop}); err == nil {
		t.Fatal("MaxCPUs < MinCPUs accepted")
	}
	if _, err := sc.Submit(JobSpec{Priority: Priority(7), Run: noop}); err == nil {
		t.Fatal("invalid priority accepted")
	}
}

func TestFairShareFavorsHighPriority(t *testing.T) {
	sc, err := New(Config{Machine: testMachine(), MaxQueued: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Fill the machine so subsequent submissions queue up.
	release := make(chan struct{})
	started := make(chan []int, 1)
	blocker, err := sc.Submit(JobSpec{MinCPUs: 8, MaxCPUs: 8, Run: blockingJob(started, release)})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	var mu sync.Mutex
	var order []string
	mk := func(name string, p Priority) *Job {
		j, err := sc.Submit(JobSpec{
			Name: name, Priority: p, MinCPUs: 8, MaxCPUs: 8,
			Run: func(ctx context.Context, grant []int) error {
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	// Interleave 4 low and 4 high; each needs the whole machine so they
	// serialize and the dispatch order is the service order.
	var jobs []*Job
	for i := 0; i < 4; i++ {
		jobs = append(jobs, mk(fmt.Sprintf("low%d", i), PriorityLow))
		jobs = append(jobs, mk(fmt.Sprintf("high%d", i), PriorityHigh))
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := blocker.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// With weights 4 vs 1, the first dispatch after release must be a
	// high job, and highs must finish before the last low.
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 8 {
		t.Fatalf("ran %d jobs, want 8", len(order))
	}
	if order[0][:3] != "hig" {
		t.Fatalf("first dispatched job %q, want a high-priority one (order %v)", order[0], order)
	}
	lastHigh, lastLow := -1, -1
	for i, n := range order {
		if n[:3] == "hig" {
			lastHigh = i
		} else {
			lastLow = i
		}
	}
	if lastHigh > lastLow {
		t.Fatalf("a high job ran after every low job: %v", order)
	}
}

func TestDeterministicPlacement(t *testing.T) {
	runOnce := func() [][]int {
		sc, err := New(Config{Machine: testMachine(), Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		// All three jobs hold their grants until released, so the three
		// placement decisions happen against the same free-set sequence
		// in every run.
		release := make(chan struct{})
		started := make(chan []int, 3)
		var jobs []*Job
		for i := 0; i < 3; i++ {
			j, err := sc.Submit(JobSpec{MinCPUs: 2, MaxCPUs: 2, Run: blockingJob(started, release)})
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
		close(release)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		out := make([][]int, len(jobs))
		for i, j := range jobs {
			if err := j.Wait(ctx); err != nil {
				t.Fatal(err)
			}
			out[i] = j.Status().Grant
		}
		return out
	}
	a, b := runOnce(), runOnce()
	for i := range a {
		if fmt.Sprint(a[i]) != fmt.Sprint(b[i]) {
			t.Fatalf("placement differs across identical runs: %v vs %v", a, b)
		}
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	sc, err := New(Config{Machine: testMachine()})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	defer close(release)
	started := make(chan []int, 1)
	running, err := sc.Submit(JobSpec{MinCPUs: 8, MaxCPUs: 8, Run: blockingJob(started, release)})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := sc.Submit(JobSpec{MinCPUs: 1, Run: blockingJob(nil, release)})
	if err != nil {
		t.Fatal(err)
	}

	queued.Cancel()
	if st := queued.Status(); st.State != StateCanceled {
		t.Fatalf("queued job state %v after cancel, want canceled", st.State)
	}
	if err := queued.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled queued job err = %v", err)
	}

	running.Cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := running.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled running job err = %v", err)
	}
	if st := sc.Stats(); st.InUse != 0 {
		t.Fatalf("CPUs leaked after cancel: %+v", st)
	}
}

func TestPanicIsolatedAndCPUsReclaimed(t *testing.T) {
	sc, err := New(Config{Machine: testMachine()})
	if err != nil {
		t.Fatal(err)
	}
	j, err := sc.Submit(JobSpec{Run: func(ctx context.Context, grant []int) error {
		panic("boom")
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = j.Wait(ctx)
	if err == nil || err.Error() != "sched: job panicked: boom" {
		t.Fatalf("err = %v, want panic error", err)
	}
	if st := sc.Stats(); st.InUse != 0 {
		t.Fatalf("CPUs leaked after panic: %+v", st)
	}
}

func TestFreedCPUsGoToLongestWaiting(t *testing.T) {
	sc, err := New(Config{Machine: testMachine(), MaxQueued: 8})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	started := make(chan []int, 1)
	blocker, err := sc.Submit(JobSpec{MinCPUs: 8, MaxCPUs: 8, Run: blockingJob(started, release)})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	// A wide low-priority job queued first, then a stream of high
	// narrow ones: without the longest-waiting handoff the wide job
	// could starve behind the weight-4 class.
	wideRan := make(chan struct{})
	wide, err := sc.Submit(JobSpec{
		Name: "wide", Priority: PriorityLow, MinCPUs: 8, MaxCPUs: 8,
		Run: func(ctx context.Context, grant []int) error {
			close(wideRan)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var narrows []*Job
	for i := 0; i < 4; i++ {
		j, err := sc.Submit(JobSpec{
			Name: "narrow", Priority: PriorityHigh, MinCPUs: 1, MaxCPUs: 1,
			Run: func(ctx context.Context, grant []int) error { return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		narrows = append(narrows, j)
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	select {
	case <-wideRan:
	case <-ctx.Done():
		t.Fatal("wide job starved")
	}
	for _, j := range append(narrows, blocker, wide) {
		if err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDrain(t *testing.T) {
	sc, err := New(Config{Machine: testMachine()})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	started := make(chan []int, 1)
	j, err := sc.Submit(JobSpec{MinCPUs: 8, MaxCPUs: 8, Run: blockingJob(started, release)})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := sc.Submit(JobSpec{MinCPUs: 1, Run: func(ctx context.Context, grant []int) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The queued job must have run, not been dropped.
	if err := queued.Wait(ctx); err != nil {
		t.Fatalf("queued job lost in drain: %v", err)
	}
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Submit(JobSpec{Run: func(ctx context.Context, grant []int) error { return nil }}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit err = %v, want ErrDraining", err)
	}
}

func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	sc, err := New(Config{Machine: testMachine()})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan []int, 1)
	j, err := sc.Submit(JobSpec{MinCPUs: 8, MaxCPUs: 8, Run: blockingJob(started, nil)})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := sc.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain err = %v, want DeadlineExceeded", err)
	}
	// Drain waited for the straggler's goroutine, so the job is
	// terminal now.
	if err := j.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("straggler err = %v, want Canceled", err)
	}
}

// TestJobMetrics: a JobSpec.Metrics callback's map rides on the
// EventFinished observer event and in JobStatus; a panicking callback is
// swallowed without failing the job.
func TestJobMetrics(t *testing.T) {
	var mu sync.Mutex
	var finished map[string]float64
	sc, err := New(Config{
		Machine: testMachine(),
		Observer: func(e Event) {
			if e.Kind == EventFinished {
				mu.Lock()
				finished = e.Metrics
				mu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	j, err := sc.Submit(JobSpec{
		Name:     "metered",
		Priority: PriorityNormal,
		Run:      func(ctx context.Context, grant []int) error { return nil },
		Metrics: func() map[string]float64 {
			return map[string]float64{"steal_remote_tasks": 7, "queue_imbalance_p90": 2.5}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got := finished
	mu.Unlock()
	if got["steal_remote_tasks"] != 7 || got["queue_imbalance_p90"] != 2.5 {
		t.Fatalf("EventFinished metrics = %v", got)
	}
	st := j.Status()
	if st.Metrics["steal_remote_tasks"] != 7 {
		t.Fatalf("JobStatus metrics = %v", st.Metrics)
	}
	// The status copy must be detached from the job's map.
	st.Metrics["steal_remote_tasks"] = 0
	if j.Status().Metrics["steal_remote_tasks"] != 7 {
		t.Fatal("JobStatus shares the job's metric map")
	}

	jp, err := sc.Submit(JobSpec{
		Name: "panicky-metrics",
		Run:  func(ctx context.Context, grant []int) error { return nil },
		Metrics: func() map[string]float64 {
			panic("metrics tap broke")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := jp.Wait(context.Background()); err != nil {
		t.Fatalf("panicking metrics callback failed the job: %v", err)
	}
	if st := jp.Status(); st.State != StateDone || st.Metrics != nil {
		t.Fatalf("panicky metrics job: %+v", st)
	}
}

// TestWaiterFanoutRunning: coalesced waiters on a running job detach one
// by one; the execution is cancelled only by the last detach.
func TestWaiterFanoutRunning(t *testing.T) {
	sc, err := New(Config{Machine: testMachine()})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan []int, 1)
	release := make(chan struct{})
	j, err := sc.Submit(JobSpec{Name: "leader", Priority: PriorityNormal, Run: blockingJob(started, release)})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	j.AddWaiter()
	j.AddWaiter()
	if got := j.Waiters(); got != 3 {
		t.Fatalf("waiters = %d, want 3", got)
	}
	if j.DropWaiter() {
		t.Fatal("first DropWaiter cancelled a job with two remaining waiters")
	}
	if st := j.Status(); st.State != StateRunning || st.Waiters != 2 {
		t.Fatalf("after one drop: state %v, waiters %d", st.State, st.Waiters)
	}
	if j.DropWaiter() {
		t.Fatal("second DropWaiter cancelled a job with one remaining waiter")
	}
	if !j.DropWaiter() {
		t.Fatal("last DropWaiter did not cancel the running job")
	}
	if err := j.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader error = %v, want context.Canceled", err)
	}
	// Terminal drops are no-ops.
	if j.DropWaiter() {
		t.Fatal("DropWaiter on a terminal job reported a cancellation")
	}
}

// TestWaiterFanoutQueued: the last waiter detaching from a still-queued
// job removes it before it ever runs.
func TestWaiterFanoutQueued(t *testing.T) {
	sc, err := New(Config{Machine: testMachine()})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan []int, 1)
	release := make(chan struct{})
	blocker, err := sc.Submit(JobSpec{Name: "blocker", MinCPUs: 8, MaxCPUs: 8, Priority: PriorityNormal, Run: blockingJob(started, release)})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ran := false
	q, err := sc.Submit(JobSpec{Name: "queued", MinCPUs: 8, Priority: PriorityNormal, Run: func(ctx context.Context, grant []int) error {
		ran = true
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	q.AddWaiter()
	if q.DropWaiter() {
		t.Fatal("non-final DropWaiter cancelled the queued job")
	}
	if !q.DropWaiter() {
		t.Fatal("final DropWaiter did not cancel the queued job")
	}
	if st := q.Status(); st.State != StateCanceled {
		t.Fatalf("queued job state after last drop = %v, want canceled", st.State)
	}
	if ran {
		t.Fatal("queued job ran despite all waiters detaching")
	}
	close(release)
	if err := blocker.Wait(context.Background()); err != nil {
		t.Fatalf("blocker: %v", err)
	}
}

// TestReserveID: reserved ids come from the same sequence as submitted
// jobs and never collide with them.
func TestReserveID(t *testing.T) {
	sc, err := New(Config{Machine: testMachine()})
	if err != nil {
		t.Fatal(err)
	}
	j, err := sc.Submit(JobSpec{Name: "a", Priority: PriorityNormal, Run: func(ctx context.Context, grant []int) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	r1 := sc.ReserveID()
	r2 := sc.ReserveID()
	if r1 <= j.ID() || r2 <= r1 {
		t.Fatalf("reserved ids %d, %d not strictly after job id %d", r1, r2, j.ID())
	}
	j2, err := sc.Submit(JobSpec{Name: "b", Priority: PriorityNormal, Run: func(ctx context.Context, grant []int) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if j2.ID() <= r2 {
		t.Fatalf("job id %d collides with reserved id %d", j2.ID(), r2)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := j2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// collected reports whether the finalizer signalled by ch fires within a
// few GC cycles.
func collected(ch <-chan struct{}) bool {
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-ch:
			return true
		case <-time.After(10 * time.Millisecond):
		}
	}
	return false
}

// A terminal job's handle must not pin what its Run and Metrics closures
// captured: the service tier retains handles of finished jobs, and the
// closures typically hold the job's whole input.
func TestTerminalJobReleasesRunClosure(t *testing.T) {
	sc, err := New(Config{Machine: testMachine(), Budget: 2})
	if err != nil {
		t.Fatal(err)
	}
	// submit admits a job whose closures capture a fresh 16 MB block and
	// returns the handle plus a channel closed when the block is freed.
	// The block is reachable only through the closures.
	submit := func(run func(ctx context.Context, buf *[16 << 20]byte) error) (*Job, <-chan struct{}) {
		buf := new([16 << 20]byte)
		freed := make(chan struct{})
		runtime.SetFinalizer(buf, func(*[16 << 20]byte) { close(freed) })
		j, err := sc.Submit(JobSpec{
			Name: "pinned-input", Priority: PriorityNormal, MinCPUs: 2,
			Run:     func(ctx context.Context, _ []int) error { return run(ctx, buf) },
			Metrics: func() map[string]float64 { return map[string]float64{"first": float64(buf[0])} },
		})
		if err != nil {
			t.Fatal(err)
		}
		return j, freed
	}

	started := make(chan struct{})
	release := make(chan struct{})
	done, doneFreed := submit(func(ctx context.Context, buf *[16 << 20]byte) error {
		buf[1] = 1
		close(started)
		<-release
		return nil
	})
	<-started
	// The whole budget is taken, so this one stays queued until cancelled.
	queued, queuedFreed := submit(func(context.Context, *[16 << 20]byte) error {
		t.Error("a job cancelled while queued ran")
		return nil
	})
	queued.Cancel()
	if st := queued.Status(); st.State != StateCanceled {
		t.Fatalf("cancelled queued job is %v", st.State)
	}
	if !collected(queuedFreed) {
		t.Fatal("a job cancelled while queued still pins what its Run closure captured")
	}

	select {
	case <-doneFreed:
		t.Fatal("the running job's input was freed under it")
	default:
	}
	close(release)
	if err := done.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !collected(doneFreed) {
		t.Fatal("a finished job still pins what its Run closure captured")
	}
	if st := done.Status(); st.State != StateDone || st.Metrics["first"] != 0 {
		t.Fatalf("finished job status = %+v", st)
	}
	runtime.KeepAlive(queued)
	runtime.KeepAlive(done)
}
