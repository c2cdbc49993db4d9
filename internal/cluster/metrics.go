package cluster

import (
	"fmt"
	"io"
	"sync/atomic"

	"ramr/internal/telemetry"
)

// metrics are the coordinator's ramr_cluster_* Prometheus families,
// served from the ramrc daemon's /metrics.
type metrics struct {
	jobs         atomic.Uint64
	jobErrors    atomic.Uint64
	shards       atomic.Uint64
	memoHits     atomic.Uint64
	retries      atomic.Uint64
	replacements atomic.Uint64
	reshards     atomic.Uint64
	merges       atomic.Uint64
	mergeSeconds *telemetry.HistogramVec
}

func newMetrics() *metrics {
	return &metrics{
		mergeSeconds: telemetry.NewHistogramVec("ramr_cluster_merge_seconds",
			"Final-reduce duration merging shard partials into one result.",
			[]string{"app"}, nil),
	}
}

// WritePrometheus renders the coordinator families, with the live
// worker-health gauges taken from the coordinator's worker set.
func (c *Coordinator) WritePrometheus(w io.Writer) error {
	m := c.met
	down := 0
	for _, ws := range c.workers {
		if ws.isDown() {
			down++
		}
	}
	if _, err := fmt.Fprintf(w, `# HELP ramr_cluster_jobs_total Cluster jobs accepted for dispatch.
# TYPE ramr_cluster_jobs_total counter
ramr_cluster_jobs_total %d
# HELP ramr_cluster_job_errors_total Cluster jobs that failed (validation, dispatch or merge).
# TYPE ramr_cluster_job_errors_total counter
ramr_cluster_job_errors_total %d
# HELP ramr_cluster_shards_dispatched_total Shards completed on a worker.
# TYPE ramr_cluster_shards_dispatched_total counter
ramr_cluster_shards_dispatched_total %d
# HELP ramr_cluster_shard_memo_hits_total Shards answered from a worker's memo cache.
# TYPE ramr_cluster_shard_memo_hits_total counter
ramr_cluster_shard_memo_hits_total %d
# HELP ramr_cluster_retries_total Backoff passes over a shard's candidate list.
# TYPE ramr_cluster_retries_total counter
ramr_cluster_retries_total %d
# HELP ramr_cluster_replacements_total Shards re-placed off a saturated (429) worker.
# TYPE ramr_cluster_replacements_total counter
ramr_cluster_replacements_total %d
# HELP ramr_cluster_reshards_total Shards re-dispatched after their worker died mid-shard.
# TYPE ramr_cluster_reshards_total counter
ramr_cluster_reshards_total %d
# HELP ramr_cluster_merges_total Final reduces completed.
# TYPE ramr_cluster_merges_total counter
ramr_cluster_merges_total %d
# HELP ramr_cluster_workers Configured workers.
# TYPE ramr_cluster_workers gauge
ramr_cluster_workers %d
# HELP ramr_cluster_workers_down Workers currently marked unreachable.
# TYPE ramr_cluster_workers_down gauge
ramr_cluster_workers_down %d
`,
		m.jobs.Load(), m.jobErrors.Load(), m.shards.Load(), m.memoHits.Load(),
		m.retries.Load(), m.replacements.Load(), m.reshards.Load(), m.merges.Load(),
		len(c.workers), down); err != nil {
		return err
	}
	return m.mergeSeconds.WritePrometheus(w)
}
