package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
)

// WritePrometheus emits the run's ledger as per-worker counters and
// state gauges, plus the run's duration, in the Prometheus text exposition
// format (version 0.0.4). Safe to call while a run is in progress: the
// shards are atomics, so a live scrape reads the books without touching
// the hot path.
func (t *Telemetry) WritePrometheus(w io.Writer) error {
	t.mu.Lock()
	workers, elapsed := t.workersLocked(), t.elapsedLocked()
	t.mu.Unlock()
	bw := bufio.NewWriter(w)

	counter := func(name, help string, value func(*Worker) uint64) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, wk := range workers {
			fmt.Fprintf(bw, "%s{engine=%q,role=%q,worker=\"%d\"} %d\n",
				name, wk.engine, wk.role, wk.id, value(wk))
		}
	}
	counter("ramr_worker_pairs_emitted_total", "Intermediate pairs emitted by Map.",
		func(w *Worker) uint64 { return w.emitted.Load() })
	counter("ramr_worker_pairs_combined_total", "Intermediate pairs folded by Combine.",
		(*Worker).combined)
	counter("ramr_worker_tasks_total", "Completed map tasks.",
		func(w *Worker) uint64 { return w.tasks.Load() })
	counter("ramr_worker_batches_total", "Consumed queue segments.",
		func(w *Worker) uint64 { return w.batchCalls.Load() })
	counter("ramr_worker_failed_pushes_total", "Push wait rounds that found the ring full.",
		func(w *Worker) uint64 { return w.failedPush.Load() })
	counter("ramr_worker_sleep_microseconds_total", "Microseconds producers spent parked on a full ring (measured wall time).",
		func(w *Worker) uint64 { return w.sleepMicros.Load() })
	counter("ramr_worker_tasks_helped_total", "Map tasks run by a combiner: a combine worker of a fused pool, in Phoenix++, a stream session or a RAMR run that ships nothing.",
		(*Worker).combinerTasks)
	counter("ramr_worker_pairs_folded_total", "Pairs folded where they were emitted instead of crossing a ring: a fused worker's, in a RAMR run whose pinning plan ships no pair, a stream session, and Phoenix++.",
		func(w *Worker) uint64 { return w.folded.Load() })
	counter("ramr_worker_remote_executed_total", "Stolen map tasks completed by this worker.",
		func(w *Worker) uint64 { return w.remoteExecuted.Load() })

	// Steal counters carry an extra class label (local/socket/remote), so
	// they get their own emitter instead of the fixed-label helper above.
	stealCounter := func(name, help string, value func(*Worker, int) uint64) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, wk := range workers {
			for cls, label := range StealClassNames {
				fmt.Fprintf(bw, "%s{engine=%q,role=%q,worker=\"%d\",class=%q} %d\n",
					name, wk.engine, wk.role, wk.id, label, value(wk, cls))
			}
		}
	}
	stealCounter("ramr_worker_steal_batches_total", "Task-deque takes by steal distance class.",
		func(w *Worker, c int) uint64 { return w.stealBatches[c].Load() })
	stealCounter("ramr_worker_steal_tasks_total", "Map tasks taken by steal distance class.",
		func(w *Worker, c int) uint64 { return w.stealTasks[c].Load() })

	fmt.Fprintf(bw, "# HELP ramr_worker_state Worker activity state (0=idle 1=working 2=draining 3=done).\n# TYPE ramr_worker_state gauge\n")
	for _, wk := range workers {
		fmt.Fprintf(bw, "ramr_worker_state{engine=%q,role=%q,worker=\"%d\"} %d\n",
			wk.engine, wk.role, wk.id, wk.state.Load())
	}
	fmt.Fprintf(bw, "# HELP ramr_run_duration_seconds Elapsed time of the current run, frozen at its end.\n# TYPE ramr_run_duration_seconds gauge\nramr_run_duration_seconds %g\n",
		elapsed.Seconds())
	return bw.Flush()
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
