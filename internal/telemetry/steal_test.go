package telemetry

import (
	"strings"
	"testing"
	"time"
)

// TestSampleImbalance: the sampler's per-tick imbalance is max/mean depth,
// 1.0 for uniform (and all-empty) depths.
func TestSampleImbalance(t *testing.T) {
	tel := &Telemetry{Interval: time.Hour} // only the forced EndRun sample
	begin(tel, "ramr")
	tel.RegisterQueue("mapper-0", &fakeProbe{depth: 30, cap: 100})
	tel.RegisterQueue("mapper-1", &fakeProbe{depth: 10, cap: 100})
	tel.RegisterQueue("mapper-2", &fakeProbe{depth: 20, cap: 100})
	rep := tel.EndRun(nil)
	// max 30, mean 20 -> 1.5.
	if got := rep.Imbalance.Max; got < 1.49 || got > 1.51 {
		t.Fatalf("imbalance = %v, want 1.5", got)
	}
	if len(rep.Series) == 0 || rep.Series[len(rep.Series)-1].Imbalance != rep.Imbalance.Max {
		t.Fatal("series points do not carry the imbalance")
	}

	tel2 := &Telemetry{Interval: time.Hour}
	begin(tel2, "ramr")
	tel2.RegisterQueue("mapper-0", &fakeProbe{depth: 0, cap: 100})
	tel2.RegisterQueue("mapper-1", &fakeProbe{depth: 0, cap: 100})
	rep2 := tel2.EndRun(nil)
	if rep2.Imbalance.Max != 1.0 {
		t.Fatalf("all-empty imbalance = %v, want the balanced 1.0", rep2.Imbalance.Max)
	}
}

// TestWorkerStealCounters: AddSteal buckets by class, AddRemoteExecuted
// accumulates, and the report totals fold all workers.
func TestWorkerStealCounters(t *testing.T) {
	tel := &Telemetry{Interval: time.Hour}
	l := begin(tel, "ramr")
	w0 := l.Register("mapper", 0)
	w1 := l.Register("mapper", 1)
	w0.AddSteal(0, 5) // local
	w0.AddSteal(2, 3) // remote
	for range 3 {
		w0.AddRemoteExecuted()
	}
	w1.AddSteal(1, 2) // socket
	w1.AddRemoteExecuted()
	w1.AddRemoteExecuted()
	rep := tel.EndRun(nil)
	tot := rep.Totals
	if tot.LocalTakes != 5 || tot.SocketSteals != 2 || tot.RemoteSteals != 3 || tot.RemoteExecuted != 5 ||
		tot.LocalBatches != 1 || tot.SocketBatches != 1 || tot.RemoteBatches != 1 {
		t.Fatalf("steal totals: %+v", tot)
	}
	if rep.Workers[0].RemoteSteals != 3 || rep.Workers[1].SocketSteals != 2 {
		t.Fatalf("per-worker steal fields: %+v", rep.Workers)
	}
}

// TestPrometheusStealFamilies: the exposition carries the per-class steal
// counters and the imbalance gauge.
func TestPrometheusStealFamilies(t *testing.T) {
	tel := &Telemetry{Interval: time.Hour}
	l := begin(tel, "ramr")
	tel.RegisterQueue("mapper-0", &fakeProbe{depth: 8, cap: 16})
	tel.RegisterQueue("mapper-1", &fakeProbe{depth: 0, cap: 16})
	w := l.Register("mapper", 0)
	w.AddSteal(2, 4)
	for range 4 {
		w.AddRemoteExecuted()
	}
	tel.EndRun(nil)

	var sb strings.Builder
	if err := tel.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`ramr_worker_steal_tasks_total{engine="ramr",role="mapper",worker="0",class="remote"} 4`,
		`ramr_worker_steal_batches_total{engine="ramr",role="mapper",worker="0",class="remote"} 1`,
		`ramr_worker_steal_tasks_total{engine="ramr",role="mapper",worker="0",class="local"} 0`,
		`ramr_worker_remote_executed_total{engine="ramr",role="mapper",worker="0"} 4`,
		"# TYPE ramr_queue_imbalance gauge",
		"ramr_queue_imbalance 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}
