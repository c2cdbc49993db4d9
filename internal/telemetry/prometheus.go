package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// promSnap is one Telemetry's point-in-time export state, captured under
// its lock so the emitter below can run lock-free. labels is an extra
// label prefix (`job="3",workload="WC",` — note the trailing comma) merged
// into every sample's label set, or "" for the historical single-run
// exposition.
type promSnap struct {
	labels    string
	engine    string
	workers   []*Worker
	queues    []registeredQueue
	elapsed   time.Duration
	samples   int
	imbalance float64
}

// snap captures the export state of the current run.
func (t *Telemetry) snap(labels string) promSnap {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := promSnap{
		labels:    labels,
		engine:    t.engine,
		workers:   append([]*Worker(nil), t.workers...),
		queues:    append([]registeredQueue(nil), t.queues...),
		imbalance: t.lastImbalance,
	}
	if !t.start.IsZero() {
		s.elapsed = time.Since(t.start)
	}
	if t.series != nil {
		s.samples = len(t.series.samples)
	}
	return s
}

// writePromSnaps emits the snapshots in the Prometheus text exposition
// format (version 0.0.4). Each metric family is written exactly once —
// HELP/TYPE header first, then every snapshot's samples — so aggregating
// several live runs still yields a single well-formed exposition.
func writePromSnaps(w io.Writer, snaps []promSnap) error {
	if len(snaps) == 0 {
		// No registered runs: an empty exposition, not a list of
		// sample-less family headers.
		return nil
	}
	bw := bufio.NewWriter(w)

	counter := func(name, help string, value func(*Worker) uint64) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, s := range snaps {
			for _, wk := range s.workers {
				fmt.Fprintf(bw, "%s{%sengine=%q,role=%q,worker=\"%d\"} %d\n",
					name, s.labels, wk.engine, wk.role, wk.id, value(wk))
			}
		}
	}
	counter("ramr_worker_pairs_emitted_total", "Intermediate pairs emitted by Map.",
		func(w *Worker) uint64 { return w.emitted.Load() })
	counter("ramr_worker_pairs_combined_total", "Intermediate pairs folded by Combine.",
		func(w *Worker) uint64 { return w.combined.Load() })
	counter("ramr_worker_tasks_total", "Completed map tasks.",
		func(w *Worker) uint64 { return w.tasks.Load() })
	counter("ramr_worker_batches_total", "Consumed queue segments.",
		func(w *Worker) uint64 { return w.batches.Load() })
	counter("ramr_worker_failed_pushes_total", "Push wait rounds that found the ring full.",
		func(w *Worker) uint64 { return w.failedPush.Load() })
	counter("ramr_worker_sleep_microseconds_total", "Microseconds producers spent parked on a full ring (measured wall time).",
		func(w *Worker) uint64 { return w.sleepMicros.Load() })
	counter("ramr_worker_tasks_helped_total", "Map tasks run by a combiner slot whose rings held nothing for it.",
		func(w *Worker) uint64 { return w.helped.Load() })
	counter("ramr_worker_pairs_folded_total", "Pairs folded where they were emitted instead of crossing a ring.",
		func(w *Worker) uint64 { return w.folded.Load() })
	counter("ramr_worker_remote_executed_total", "Stolen map tasks completed by this worker.",
		func(w *Worker) uint64 { return w.remoteExecuted.Load() })

	// Steal counters carry an extra class label (local/socket/remote), so
	// they get their own emitter instead of the fixed-label helper above.
	stealCounter := func(name, help string, value func(*Worker, int) uint64) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, s := range snaps {
			for _, wk := range s.workers {
				for cls, label := range StealClassNames {
					fmt.Fprintf(bw, "%s{%sengine=%q,role=%q,worker=\"%d\",class=%q} %d\n",
						name, s.labels, wk.engine, wk.role, wk.id, label, value(wk, cls))
				}
			}
		}
	}
	stealCounter("ramr_worker_steal_batches_total", "Task-deque takes by steal distance class.",
		func(w *Worker, c int) uint64 { return w.stealBatches[c].Load() })
	stealCounter("ramr_worker_steal_tasks_total", "Map tasks taken by steal distance class.",
		func(w *Worker, c int) uint64 { return w.stealTasks[c].Load() })

	fmt.Fprintf(bw, "# HELP ramr_worker_state Worker activity state (0=idle 1=working 2=draining 3=done 4=helping).\n# TYPE ramr_worker_state gauge\n")
	for _, s := range snaps {
		for _, wk := range s.workers {
			fmt.Fprintf(bw, "ramr_worker_state{%sengine=%q,role=%q,worker=\"%d\"} %d\n",
				s.labels, wk.engine, wk.role, wk.id, wk.state.Load())
		}
	}

	fmt.Fprintf(bw, "# HELP ramr_queue_depth Buffered elements in the SPSC ring.\n# TYPE ramr_queue_depth gauge\n")
	for _, s := range snaps {
		for _, q := range s.queues {
			fmt.Fprintf(bw, "ramr_queue_depth{%sengine=%q,queue=%q} %d\n", s.labels, s.engine, q.name, q.probe.Len())
		}
	}
	fmt.Fprintf(bw, "# HELP ramr_queue_capacity SPSC ring capacity.\n# TYPE ramr_queue_capacity gauge\n")
	for _, s := range snaps {
		for _, q := range s.queues {
			fmt.Fprintf(bw, "ramr_queue_capacity{%sengine=%q,queue=%q} %d\n", s.labels, s.engine, q.name, q.probe.Cap())
		}
	}

	gauge := func(name, help string, value func(promSnap) string) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		for _, s := range snaps {
			if s.labels == "" {
				fmt.Fprintf(bw, "%s %s\n", name, value(s))
			} else {
				// Trim the label prefix's trailing comma when it is
				// the whole label set.
				fmt.Fprintf(bw, "%s{%s} %s\n", name, s.labels[:len(s.labels)-1], value(s))
			}
		}
	}
	gauge("ramr_run_duration_seconds", "Elapsed time of the current run.",
		func(s promSnap) string { return fmt.Sprintf("%g", s.elapsed.Seconds()) })
	gauge("ramr_samples_total", "Samples retained in the occupancy time-series.",
		func(s promSnap) string { return fmt.Sprintf("%d", s.samples) })
	gauge("ramr_queue_imbalance", "Latest sampled occupancy-imbalance ratio (max/mean queue depth).",
		func(s promSnap) string { return fmt.Sprintf("%g", s.imbalance) })
	return bw.Flush()
}

// WritePrometheus emits the current counters and queue gauges in the
// Prometheus text exposition format (version 0.0.4). Safe to call while a
// run is in progress: worker counters are atomics and queue probes are
// point-in-time snapshots, so a live scrape sees a consistent-enough view
// without touching the hot path.
func (t *Telemetry) WritePrometheus(w io.Writer) error {
	return writePromSnaps(w, []promSnap{t.snap("")})
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
	return newServer(t.WritePrometheus, addr)
}

// newServer is the shared server constructor: write renders the /metrics
// body (a single Telemetry's exposition, or a Multi's aggregate).
func newServer(write func(io.Writer) error, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", metricsHandler(write))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s := &Server{srv: &http.Server{Handler: mux}, ln: ln}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// metricsHandler adapts an exposition writer into an HTTP handler, shared
// between the standalone Server and embedding services (cmd/ramrd mounts
// it on its own mux).
func metricsHandler(write func(io.Writer) error) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = write(w)
	})
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down immediately.
func (s *Server) Close() error { return s.srv.Close() }
