package main

import (
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"time"
)

// clusterJobsPerSecond sizes cluster_shard: 39 jobs for a 10 s run.
const clusterJobsPerSecond = 3.9

// clusterSet is the three daemons of cluster_shard.
type clusterSet struct {
	workers [2]*daemon
	coord   *daemon
}

func (cs *clusterSet) stop() {
	if cs == nil {
		return
	}
	if cs.coord != nil {
		cs.coord.stop()
	}
	for _, w := range cs.workers {
		if w != nil {
			w.stop()
		}
	}
}

// startCluster boots two ramrd workers, each with half the host's CPUs
// as its budget, behind one ramrc with equal link costs and the default
// poll interval.
func startCluster(root string) (*clusterSet, error) {
	if err := buildDaemons(root); err != nil {
		return nil, err
	}
	cs := &clusterSet{}
	budget := fmt.Sprint(max(1, runtime.NumCPU()/2))
	var urls []string
	for i := range cs.workers {
		w, err := startDaemon(root, "ramrd", "-budget", budget)
		if err != nil {
			cs.stop()
			return nil, err
		}
		cs.workers[i] = w
		urls = append(urls, w.url+"=0")
	}
	c, err := startDaemon(root, "ramrc", "-workers", strings.Join(urls, ","))
	if err != nil {
		cs.stop()
		return nil, err
	}
	cs.coord = c
	return cs, nil
}

func runClusterShard(rc *runCtx) error {
	res, tr := rc.res, rc.tr
	rc.lanes = 1
	cs, err := timedSetup(rc, func() (*clusterSet, error) { return startCluster(rc.root) }, (*clusterSet).stop)
	if err != nil {
		return err
	}
	defer cs.stop()
	hc := newHTTPClient(1)
	base := cs.coord.url

	runJob := func(op serveOp) (*resultDoc, jobTimes, error) {
		doc, code, jt, err := submit(hc, base, []byte(op.Body))
		if err != nil {
			return nil, jt, err
		}
		if code != http.StatusCreated {
			return nil, jt, fmt.Errorf("POST /jobs: status %d: %s", code, doc.Error)
		}
		final, err := awaitResult(hc, base, doc.ID, &jt)
		return final, jt, err
	}
	for _, op := range clusterSchedule(subSeed(rc.seed, "cluster-warmup", 0), rc.warmups()) {
		if _, _, err := runJob(op); err != nil {
			return fmt.Errorf("warm-up job: %w", err)
		}
	}

	ops := clusterSchedule(rc.seed, rc.sized(clusterJobsPerSecond, 10))
	outcomes := make([]string, len(ops))
	var coldS, overheadS, mergeMS, partialB []float64
	var attempts, shards int
	begin := time.Now()
	for i, op := range ops {
		res.Attempted++
		final, jt, err := runJob(op)
		if err != nil {
			res.fail("job %d (%s): %v", i, op.Params.App, err)
			continue
		}
		if len(final.PerShard) != len(cs.workers) {
			res.fail("job %d (%s): %d shard records, want one per worker", i, op.Params.App, len(final.PerShard))
			continue
		}
		end := time.Now()
		outcomes[i] = final.outcome()
		e2e := jt.held.Sub(jt.postStart)
		coldS = append(coldS, e2e.Seconds())
		slowest := 0
		for s, sh := range final.PerShard {
			attempts += sh.Attempts
			shards++
			if sh.WallMS > final.PerShard[slowest].WallMS {
				slowest = s
			}
		}
		slowWall := time.Duration(final.PerShard[slowest].WallMS * float64(time.Millisecond))
		overheadS = append(overheadS, (e2e - slowWall).Seconds())
		mergeMS = append(mergeMS, final.MergeMS)
		if tr == nil {
			continue
		}

		// Trace-only calls: the coordinator's own spans, and each shard's
		// worker-side result document for the size of its partial.
		t0 := time.Now()
		spans, err := fetchTrace(hc, base, final.ID, "merge")
		for _, sh := range final.PerShard {
			if _, size, err := httpJSON(hc, http.MethodGet, fmt.Sprintf("%s/jobs/%d/result", sh.Worker, sh.JobID), nil, nil); err == nil {
				partialB = append(partialB, float64(size))
			}
		}
		tr.noteTraceOnly(time.Since(t0))
		if err != nil {
			res.fail("job %d: fetching trace: %v", i, err)
			continue
		}
		opID := i + 1
		root := tr.root(opID, 0, "sharded "+op.Params.App, jt.postStart, end)
		tr.child(root, opID, "POST /jobs", "cluster", jt.postStart, jt.postEnd)
		await := tr.child(root, opID, "await result", "cluster", jt.postEnd, jt.held)
		if s, ok := spans["probe"]; ok {
			a, b := s.at(jt.postStart)
			tr.child(await, opID, "probe", "cluster.probe", a, b)
		}
		// Only the slowest shard blocks the result; the others are drawn
		// but not accounted.
		for s := range final.PerShard {
			name := fmt.Sprintf("shard-%d/%d", s, len(final.PerShard))
			sp, ok := spans[name]
			if !ok {
				continue
			}
			a, b := sp.at(jt.postStart)
			if s != slowest {
				tr.auxSpan(opID, name, "cluster.dispatch", a, b)
				continue
			}
			id := tr.child(await, opID, name, "cluster.dispatch", a, b)
			tr.child(id, opID, "worker job", "core", b.Add(-slowWall), b)
		}
		if s, ok := spans["merge"]; ok {
			a, b := s.at(jt.postStart)
			tr.child(await, opID, "merge", "cluster.merge", a, b)
		}
		tr.child(root, opID, "verify", "bench", jt.held, end)
		for _, p := range jt.polls {
			tr.auxSpan(opID, "GET result", "cluster", p.start, p.end)
		}
	}
	rc.makespan = time.Since(begin)

	// A seeded 5 % of the sharded jobs against an in-process Phoenix++
	// run of the whole, unsharded input.
	for _, k := range sampleOps(rc.seed, "cluster-verify", len(ops), 0.05) {
		if outcomes[k] == "" {
			continue // already counted as failed
		}
		ref, err := referenceRun(ops[k].Params)
		if err != nil {
			return err
		}
		if outcomes[k] != ref.String() {
			res.fail("sharded job %+v: merged result %s, in-process Phoenix++ reference %s", ops[k].Params, outcomes[k], ref)
		}
	}

	res.Counts["jobs"] = int64(len(ops))
	res.Counts["shards"] = int64(shards)
	res.set("makespan_s", rc.makespan.Seconds())
	res.setTiming("cold_job_s_p50", coldS, 0.5)
	if tr != nil {
		res.setTiming("cluster.overhead_s_p50", overheadS, 0.5)
		res.setTiming("cluster.merge_ms_p50", mergeMS, 0.5)
		res.setTiming("cluster.partial_bytes_p50", partialB, 0.5)
		if shards > 0 {
			res.set("cluster.attempts_per_shard", float64(attempts)/float64(shards))
		}
	}
	rss := cs.coord.peakRSSMB()
	for _, w := range cs.workers {
		rss += w.peakRSSMB()
	}
	res.set("peak_rss_mb", rss)
	return nil
}
