// Command ramrd is the RAMR job service daemon: an HTTP front end over
// the multi-job scheduler (internal/sched) through which clients submit
// named workloads, poll status, fetch results, cancel jobs, and scrape
// one aggregated Prometheus /metrics endpoint with per-job labels.
//
// Quickstart:
//
//	ramrd -addr 127.0.0.1:8080 -log-format json &
//	curl -s -X POST localhost:8080/jobs \
//	     -d '{"workload":"WC","priority":"high"}'
//	curl -s localhost:8080/jobs/1
//	curl -s localhost:8080/jobs/1/result
//	curl -s localhost:8080/jobs/1/trace   # Chrome-trace JSON (Perfetto)
//	curl -s localhost:8080/metrics
//	curl -s localhost:8080/debug/events
//
// Streaming sessions keep a resident pipeline alive across windowed
// results instead of tearing workers down per job: submit with a
// "stream" spec, feed chunks over time, read sealed windows, close to
// seal the tail. Backpressured ingestion answers 429 with a Retry-After
// hint when the pending-split bound is hit:
//
//	curl -s -X POST localhost:8080/jobs \
//	     -d '{"workload":"SYNTH","stream":{"window":1,"max_pending":64}}'
//	curl -s -X POST localhost:8080/jobs/1/chunks -d '{"ts":0,"elements":4096}'
//	curl -s -X POST localhost:8080/jobs/1/chunks -d '{"ts":1,"elements":4096}'
//	curl -s localhost:8080/jobs/1/windows        # sealed window summaries
//	curl -s localhost:8080/jobs/1/windows/0      # one sealed window
//	curl -s -X POST localhost:8080/jobs/1/close  # seal tail, settle job
//
// Logs are structured (log/slog): text by default, JSON with
// -log-format json. Job lines carry job_id and content_digest attrs, so
// one grep correlates a submission across admission, scheduling and
// completion.
//
// On SIGINT/SIGTERM the daemon stops admission (readiness /readyz flips
// to 503), waits for queued and running jobs up to -drain-timeout,
// cancels stragglers, and exits 0.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"ramr/internal/service"
	"ramr/internal/topology"
)

func parseMachine(s string) (*topology.Machine, error) {
	switch {
	case s == "" || s == "host":
		return topology.Detect(), nil
	case s == "haswell":
		return topology.HaswellServer(), nil
	case s == "phi":
		return topology.XeonPhi(), nil
	case strings.HasPrefix(s, "flat:"):
		n, err := strconv.Atoi(strings.TrimPrefix(s, "flat:"))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("invalid flat machine %q (want flat:N)", s)
		}
		return topology.Flat(n), nil
	default:
		return nil, fmt.Errorf("unknown machine %q (want host|haswell|phi|flat:N)", s)
	}
}

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address (host:port; :0 picks a free port)")
		machine      = flag.String("machine", "host", "topology: host, haswell, phi, or flat:N (synthetic presets let a small host exercise multi-job scheduling)")
		budget       = flag.Int("budget", 0, "logical-CPU budget shared by all jobs (0 = whole machine)")
		maxQueued    = flag.Int("max-queued", 0, "admission queue bound; POST /jobs returns 429 beyond it (0 = default)")
		seed         = flag.Int64("seed", 0, "scheduler tie-break seed")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for queued and running jobs before cancelling")
		cacheBytes   = flag.Int64("cache-max-bytes", 0, "result memo cache bound in bytes; repeat submissions of an identical job return the cached result with HTTP 200 (0 = 32 MiB default, negative disables)")
		retain       = flag.Int("retain-finished", 0, "finished-job records kept in the registry before the oldest are evicted (0 = 128 default, negative retains all)")
		eventLog     = flag.Int("event-log", 0, "bounded /debug/events ring capacity (0 = 512 default, negative disables)")
		logFormat    = flag.String("log-format", "text", "structured log encoding: text or json")
		logLevel     = flag.String("log-level", "info", "minimum log level: debug, info, warn, error (debug includes per-transition scheduler lines)")
	)
	flag.Parse()

	lg, err := service.NewLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ramrd: %v\n", err)
		os.Exit(1)
	}
	fatal := func(msg string, args ...any) {
		lg.Error(msg, args...)
		os.Exit(1)
	}

	m, err := parseMachine(*machine)
	if err != nil {
		fatal("ramrd: invalid machine", "err", err)
	}
	svc, err := service.New(service.Config{
		Machine:        m,
		Budget:         *budget,
		MaxQueued:      *maxQueued,
		Seed:           *seed,
		CacheMaxBytes:  *cacheBytes,
		RetainFinished: *retain,
		EventLog:       *eventLog,
		Logger:         lg,
	})
	if err != nil {
		fatal("ramrd: building service", "err", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("ramrd: listen", "addr", *addr, "err", err)
	}
	lg.Info("ramrd: serving", "url", "http://"+ln.Addr().String(),
		"machine", m.Name, "budget_cpus", svc.Scheduler().Budget(),
		"log_format", *logFormat)
	if err := service.Serve("ramrd", ln, svc.Handler(), svc.Shutdown, *drainTimeout, lg); err != nil {
		fatal("ramrd: serve", "err", err)
	}
}
