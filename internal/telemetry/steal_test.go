package telemetry

import (
	"strings"
	"testing"
)

// TestWorkerStealCounters: AddSteal buckets by class, AddRemoteExecuted
// accumulates, and the report totals fold all workers.
func TestWorkerStealCounters(t *testing.T) {
	tel := New()
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
	want := StealStats{LocalBatches: 1, LocalTasks: 5, SocketBatches: 1, SocketTasks: 2,
		RemoteBatches: 1, RemoteTasks: 3, RemoteExecuted: 5}
	if rep.Totals.Steal != want {
		t.Fatalf("steal totals: %+v, want %+v", rep.Totals.Steal, want)
	}
	if rep.Workers[0].Steal.RemoteTasks != 3 || rep.Workers[1].Steal.SocketTasks != 2 {
		t.Fatalf("per-worker steal fields: %+v", rep.Workers)
	}
}

// TestPrometheusStealFamilies: the exposition carries the per-class steal
// counters.
func TestPrometheusStealFamilies(t *testing.T) {
	tel := New()
	l := begin(tel, "ramr")
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
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}
