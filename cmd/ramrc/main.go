// Command ramrc is the RAMR cluster coordinator daemon: it speaks the
// same POST /jobs surface as a single ramrd worker, but executes each
// submission as data shards dispatched across several workers, merging
// their partial containers into one result whose output digest is
// byte-identical to a single-node run of the same request.
//
// Quickstart (two workers on one host):
//
//	ramrd -addr 127.0.0.1:8081 &
//	ramrd -addr 127.0.0.1:8082 &
//	ramrc -addr 127.0.0.1:8080 \
//	      -workers http://127.0.0.1:8081,http://127.0.0.1:8082 &
//	curl -s -X POST localhost:8080/jobs -d '{"workload":"WC"}'
//	curl -s localhost:8080/jobs/1/result   # merged digest + per-shard records
//	curl -s localhost:8080/stats           # worker set with health
//	curl -s localhost:8080/metrics         # ramr_cluster_* families
//
// Workers take an optional link cost after "=": workers sharing a cost
// share a switch tier, and shard placement ranks candidates by cost
// distance (the cache-distance victim order lifted to the network):
//
//	ramrc -workers http://10.0.0.1:8080=0,http://10.0.0.2:8080=0,http://10.1.0.1:8080=2
//
// Only workloads with exact integer arithmetic and an associative,
// commutative merge are dispatchable: WC, HG and SYNTH.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"ramr/internal/cluster"
	"ramr/internal/service"
)

// parseWorkers parses the -workers list: comma-separated base URLs, each
// with an optional "=cost" suffix (default cost 0).
func parseWorkers(s string) ([]cluster.WorkerSpec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("-workers is required (comma-separated ramrd base URLs, e.g. http://127.0.0.1:8081,http://127.0.0.1:8082)")
	}
	var specs []cluster.WorkerSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("-workers has an empty entry (check for stray commas)")
		}
		spec := cluster.WorkerSpec{URL: part}
		if i := strings.LastIndex(part, "="); i >= 0 {
			cost, err := strconv.Atoi(part[i+1:])
			if err != nil {
				return nil, fmt.Errorf("invalid worker cost in %q (want url=integer)", part)
			}
			spec = cluster.WorkerSpec{URL: part[:i], Cost: cost}
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

func main() {
	var (
		addr           = flag.String("addr", "127.0.0.1:8090", "listen address (host:port; :0 picks a free port)")
		workers        = flag.String("workers", "", "comma-separated ramrd worker base URLs, each with an optional =cost link-cost suffix (equal costs share a switch tier)")
		shards         = flag.Int("shards", 0, "data shards per job (0 = one per worker)")
		retries        = flag.Int("retries", 0, "full passes over a shard's candidate workers before the job fails (0 = 3 default)")
		backoff        = flag.Duration("backoff", 0, "base delay between dispatch passes, doubled per pass (0 = 100ms default)")
		requestTimeout = flag.Duration("request-timeout", 0, "per-HTTP-exchange timeout against workers; a shard is awaited with result requests waiting half of it (0 = 10s default)")
		shardTimeout   = flag.Duration("shard-timeout", 0, "per-shard dispatch+execution budget (0 = 5m default)")
		drainTimeout   = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for running dispatches before cancelling")
		logFormat      = flag.String("log-format", "text", "structured log encoding: text or json")
		logLevel       = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	)
	flag.Parse()

	// Validate every flag up front, before any network activity, so a
	// bad invocation fails in microseconds with an actionable message.
	fatalf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "ramrc: "+format+"\n", args...)
		os.Exit(2)
	}
	if flag.NArg() > 0 {
		fatalf("unexpected arguments %q (ramrc takes flags only)", flag.Args())
	}
	specs, err := parseWorkers(*workers)
	if err != nil {
		fatalf("%v", err)
	}
	if *shards < 0 {
		fatalf("-shards must be >= 0 (0 selects one shard per worker), got %d", *shards)
	}
	if *retries < 0 {
		fatalf("-retries must be >= 0 (0 selects the default), got %d", *retries)
	}
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"-backoff", *backoff},
		{"-request-timeout", *requestTimeout},
		{"-shard-timeout", *shardTimeout},
	} {
		if d.v < 0 {
			fatalf("%s must be >= 0 (0 selects the default), got %v", d.name, d.v)
		}
	}
	if *drainTimeout <= 0 {
		fatalf("-drain-timeout must be > 0, got %v", *drainTimeout)
	}
	lg, err := service.NewLogger(*logFormat, *logLevel)
	if err != nil {
		fatalf("%v", err)
	}

	co, err := cluster.New(cluster.Config{
		Workers:        specs,
		Shards:         *shards,
		Retries:        *retries,
		Backoff:        *backoff,
		RequestTimeout: *requestTimeout,
		ShardTimeout:   *shardTimeout,
		Logger:         lg,
	})
	if err != nil {
		fatalf("%v", err)
	}
	srv := cluster.NewServer(co, lg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		lg.Error("ramrc: listen", "addr", *addr, "err", err)
		os.Exit(1)
	}
	lg.Info("ramrc: serving", "url", "http://"+ln.Addr().String(),
		"workers", len(specs), "shards", co.Shards(), "log_format", *logFormat)
	if err := service.Serve("ramrc", ln, srv.Handler(), srv.Shutdown, *drainTimeout, lg); err != nil {
		lg.Error("ramrc: serve", "err", err)
		os.Exit(1)
	}
}
