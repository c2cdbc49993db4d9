package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
)

// WritePrometheus emits the run's ledger as per-worker counters (the
// ramr_worker_ families of WriteCounters), plus the run's duration, in the
// Prometheus text exposition format (version 0.0.4). Safe to call while a
// run is in progress: the shards are atomics, so a live scrape reads the
// books without touching the hot path.
func (t *Telemetry) WritePrometheus(w io.Writer) error {
	t.mu.Lock()
	workers, elapsed := t.workersLocked(), t.elapsedLocked()
	t.mu.Unlock()
	labels, rows := make([]string, len(workers)), make([]Totals, len(workers))
	for i, wk := range workers {
		labels[i] = fmt.Sprintf("engine=%q,role=%q,worker=\"%d\"", wk.engine, wk.role, wk.id)
		rows[i] = wk.books()
	}
	bw := bufio.NewWriter(w)
	WriteCounters(bw, "ramr_worker_", labels, rows)
	fmt.Fprintf(bw, "# HELP ramr_run_duration_seconds Elapsed time of the current run, frozen at its end.\n# TYPE ramr_run_duration_seconds gauge\nramr_run_duration_seconds %g\n",
		elapsed.Seconds())
	return bw.Flush()
}

// counterFamilies are the counter families of a run's books, named after
// their prefix, each a count in a Totals.
var counterFamilies = []struct {
	name, help string
	value      func(Totals) uint64
}{
	{"pairs_emitted_total", "Intermediate pairs emitted by Map.",
		func(t Totals) uint64 { return t.Emitted }},
	{"pairs_combined_total", "Intermediate pairs folded by Combine.",
		func(t Totals) uint64 { return t.Combined }},
	{"tasks_total", "Completed map tasks.",
		func(t Totals) uint64 { return t.Tasks }},
	{"batches_total", "Consumed queue segments.",
		func(t Totals) uint64 { return t.Queue.BatchCalls }},
	{"failed_pushes_total", "Push wait rounds that found the ring full.",
		func(t Totals) uint64 { return t.Queue.FailedPush }},
	{"sleep_microseconds_total", "Microseconds producers spent parked on a full ring (measured wall time).",
		func(t Totals) uint64 { return t.Queue.SleepMicros }},
	{"remote_executed_total", "Stolen map tasks completed by a worker of another locality group.",
		func(t Totals) uint64 { return t.Steal.RemoteExecuted }},
}

// stealFamilies are the steal counters, one series per steal class.
var stealFamilies = []struct {
	name, help string
	value      func(StealStats) [NumStealClasses]uint64
}{
	{"steal_batches_total", "Task-deque takes by steal distance class.",
		func(s StealStats) [NumStealClasses]uint64 {
			return [...]uint64{s.LocalBatches, s.SocketBatches, s.RemoteBatches}
		}},
	{"steal_tasks_total", "Map tasks taken by steal distance class.",
		func(s StealStats) [NumStealClasses]uint64 {
			return [...]uint64{s.LocalTasks, s.SocketTasks, s.RemoteTasks}
		}},
}

// WriteCounters writes the counter families of a run's books, each named
// prefix followed by the family, with one series per row: labels[i] (a
// rendered label list) over rows[i], and a class label added per steal
// class. Write errors stick to a bufio.Writer, so w is one and the caller's
// Flush reports them.
func WriteCounters(w *bufio.Writer, prefix string, labels []string, rows []Totals) {
	for _, f := range counterFamilies {
		name := prefix + f.name
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, f.help, name)
		for i, t := range rows {
			fmt.Fprintf(w, "%s{%s} %d\n", name, labels[i], f.value(t))
		}
	}
	for _, f := range stealFamilies {
		name := prefix + f.name
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, f.help, name)
		for i, t := range rows {
			for cls, v := range f.value(t.Steal) {
				fmt.Fprintf(w, "%s{%s,class=%q} %d\n", name, labels[i], StealClassNames[cls], v)
			}
		}
	}
}

// Server serves /metrics (Prometheus text format) plus the net/http/pprof
// endpoints under /debug/pprof/ on its own mux, so profiling a live run
// never requires the application to wire DefaultServeMux.
type Server struct {
	srv *http.Server
	ln  net.Listener
}

// NewServer starts an HTTP server for t on addr (e.g. "127.0.0.1:9090";
// ":0" picks a free port — see Addr). Close releases the listener.
func NewServer(t *Telemetry, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = t.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s := &Server{srv: &http.Server{Handler: mux}, ln: ln}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down immediately.
func (s *Server) Close() error { return s.srv.Close() }
