// Package cluster is the multi-node tier above the single-machine
// runtime: a coordinator that splits a submitted job into data shards,
// places each shard on a ramrd worker ranked by a link-cost model (the
// topology.VictimOrder idea lifted one level, from cache distance to
// network distance), dispatches the shards over the workers' existing
// HTTP job API, and runs a final reduce merging the per-worker partial
// containers into one result whose output digest is byte-identical to
// the single-node run's.
//
// The design follows the in-node-combining argument (Lee et al.): each
// worker runs the full map+combine pipeline over its shard and only the
// combined key→value container — not raw emissions — crosses the
// network. Shards are identified in the workers' content digests
// (|shard=i/n), so a re-dispatched shard (retry after a transient
// failure, reshard after a worker death) is answered from the worker's
// memo cache when it already ran there.
//
// Failure model: a worker answering 429 (admission queue saturated) is
// skipped for that attempt and the shard re-places onto the next
// candidate in link-cost order; a worker that stops answering is marked
// down and its shards reshard onto the remaining workers; a shard job
// that *fails on the worker* (as opposed to the worker failing) aborts
// the cluster job, because every worker would fail it the same way.
package cluster

import (
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"ramr/internal/service"
	"ramr/internal/workloads"
)

// Defaults for Config's zero values.
const (
	DefaultRetries        = 3
	DefaultBackoff        = 100 * time.Millisecond
	DefaultRequestTimeout = 10 * time.Second
	DefaultShardTimeout   = 5 * time.Minute
)

// WorkerSpec names one ramrd worker and its link cost.
type WorkerSpec struct {
	// URL is the worker's base URL (e.g. http://127.0.0.1:8080).
	URL string `json:"url"`
	// Cost is the link cost from the coordinator to the worker, in
	// arbitrary units (hops): workers sharing a switch share a cost.
	// Placement ranks candidates by cost distance, so equal-cost workers
	// are interchangeable and farther tiers are spill targets — the
	// network-level mirror of the cache-distance victim order.
	Cost int `json:"cost"`
}

// Config parameterizes a Coordinator.
type Config struct {
	// Workers is the worker set; at least one entry.
	Workers []WorkerSpec
	// Shards is the number of data shards per job; 0 selects one shard
	// per worker.
	Shards int
	// Retries bounds the full passes over a shard's candidate list
	// before the shard (and the job) fails; 0 selects DefaultRetries.
	Retries int
	// Backoff is the base delay between dispatch attempts, doubled per
	// pass; 0 selects DefaultBackoff.
	Backoff time.Duration
	// RequestTimeout bounds each HTTP exchange; 0 selects
	// DefaultRequestTimeout. A dispatched shard is awaited with result
	// requests that each ask the worker to wait half of it.
	RequestTimeout time.Duration
	// ShardTimeout bounds one shard's dispatch+execution+wait; 0
	// selects DefaultShardTimeout.
	ShardTimeout time.Duration
	// Client overrides the HTTP client (tests); nil builds one with
	// RequestTimeout. An override's own timeout must exceed
	// RequestTimeout/2, the wait each result request asks for.
	Client *http.Client
	// Logger receives the coordinator's structured log lines; nil
	// disables logging.
	Logger *slog.Logger
}

// worker is one worker's live state.
type worker struct {
	spec WorkerSpec

	mu   sync.Mutex
	down bool
}

func (w *worker) isDown() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.down
}

func (w *worker) setDown(v bool) {
	w.mu.Lock()
	w.down = v
	w.mu.Unlock()
}

// Coordinator shards jobs across ramrd workers and merges their partial
// results. Safe for concurrent use; worker health is shared across jobs
// (a worker marked down stays skipped until a probe revives it).
type Coordinator struct {
	cfg     Config
	workers []*worker
	client  *http.Client
	log     *slog.Logger
	met     *metrics
}

// New validates cfg and builds a Coordinator.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("cluster: no workers configured")
	}
	seen := map[string]bool{}
	for i, w := range cfg.Workers {
		u := strings.TrimRight(strings.TrimSpace(w.URL), "/")
		if u == "" {
			return nil, fmt.Errorf("cluster: worker %d has an empty URL", i)
		}
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return nil, fmt.Errorf("cluster: worker URL %q must start with http:// or https://", w.URL)
		}
		if seen[u] {
			return nil, fmt.Errorf("cluster: duplicate worker URL %q", u)
		}
		seen[u] = true
		if w.Cost < 0 {
			return nil, fmt.Errorf("cluster: worker %q has negative link cost %d", u, w.Cost)
		}
		cfg.Workers[i].URL = u
	}
	if cfg.Shards == 0 {
		cfg.Shards = len(cfg.Workers)
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("cluster: shards must be >= 1, got %d", cfg.Shards)
	}
	if cfg.Retries == 0 {
		cfg.Retries = DefaultRetries
	}
	if cfg.Retries < 1 {
		return nil, fmt.Errorf("cluster: retries must be >= 1, got %d", cfg.Retries)
	}
	if cfg.Backoff == 0 {
		cfg.Backoff = DefaultBackoff
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.ShardTimeout == 0 {
		cfg.ShardTimeout = DefaultShardTimeout
	}
	c := &Coordinator{
		cfg:    cfg,
		client: cfg.Client,
		log:    cfg.Logger,
		met:    newMetrics(),
	}
	if c.log == nil {
		c.log = slog.New(slog.DiscardHandler)
	}
	if c.client == nil {
		c.client = &http.Client{Timeout: cfg.RequestTimeout}
	}
	for _, w := range cfg.Workers {
		c.workers = append(c.workers, &worker{spec: w})
	}
	return c, nil
}

// Workers snapshots the worker set with health flags (the /stats doc).
func (c *Coordinator) Workers() []WorkerStatus {
	out := make([]WorkerStatus, len(c.workers))
	for i, w := range c.workers {
		out[i] = WorkerStatus{URL: w.spec.URL, Cost: w.spec.Cost, Down: w.isDown()}
	}
	return out
}

// Shards returns the resolved shard count per job.
func (c *Coordinator) Shards() int { return c.cfg.Shards }

// WorkerStatus is one worker's row in the coordinator's /stats document.
type WorkerStatus struct {
	URL  string `json:"url"`
	Cost int    `json:"cost"`
	Down bool   `json:"down,omitempty"`
}

// placement returns the candidate worker order for one shard —
// topology.VictimOrder lifted to the network level. The home worker is
// shard mod W (spreading a job's shards round-robin); the remaining
// candidates are ranked by ascending link-cost distance from home
// (equal-cost workers — same switch — first, farther tiers as spill
// targets), with cost ties broken by ring order from home so distinct
// shards sharing a home still fan out deterministically but not
// identically.
func (c *Coordinator) placement(shard int) []int {
	w := len(c.workers)
	home := shard % w
	order := make([]int, 0, w)
	for i := 0; i < w; i++ {
		order = append(order, i)
	}
	dist := func(i int) int {
		d := c.workers[i].spec.Cost - c.workers[home].spec.Cost
		if d < 0 {
			d = -d
		}
		return d
	}
	ring := func(i int) int { return (i - home + w) % w }
	sort.SliceStable(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if da, db := dist(ia), dist(ib); da != db {
			return da < db
		}
		return ring(ia) < ring(ib)
	})
	return order
}

// shardSpecs enumerates the job's shard coordinates.
func (c *Coordinator) shardSpecs() []workloads.ShardSpec {
	out := make([]workloads.ShardSpec, c.cfg.Shards)
	for i := range out {
		out[i] = workloads.ShardSpec{Index: i, Count: c.cfg.Shards}
	}
	return out
}

// validateRequest checks a client submission for cluster dispatch.
func validateRequest(req *service.JobRequest) error {
	if req.Stream != nil {
		return fmt.Errorf("streaming jobs cannot be dispatched across a cluster")
	}
	if req.Shard != nil {
		return fmt.Errorf("shard is coordinator-assigned; clients submit whole jobs")
	}
	// Every check a worker makes that does not read its machine, with the
	// worker's own words: a body every worker would refuse is refused here.
	if _, err := service.Resolve(req); err != nil {
		return err
	}
	if app := strings.ToUpper(strings.TrimSpace(req.Workload)); !workloads.Shardable(app) {
		return fmt.Errorf("workload %s is not shardable (cluster dispatch supports %v: exact integer arithmetic with an associative, commutative merge)",
			app, workloads.ShardableApps())
	}
	return nil
}
