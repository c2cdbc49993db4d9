package main

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"ramr/internal/mr"
)

// serveOpsPerSecond sizes serve_mixed: 500 operations for a 10 s run (cold_job_s_p95 needs at least 200 cold ones).
const serveOpsPerSecond = 50

// serveRun is the state the clients of one serve_mixed pass share.
type serveRun struct {
	rc   *runCtx
	base string
	http *http.Client

	mu        sync.Mutex
	coldS     []float64 // POST sent → result body held, executed cold jobs
	hitS      []float64 // repeat POST → 200 cached body
	allS      []float64 // every POST's client-side end-to-end time
	submitS   []float64
	pollWaitS []float64
	overheadS []float64
	buildS    []float64
	queueS    []float64
	allocS    []float64
	resultB   []float64
	queue     mr.QueueStats
}

func runServeMixed(rc *runCtx) error {
	res := rc.res
	nClients := clients()
	if rc.smoke {
		nClients = 1
	}
	rc.lanes = nClients

	d, err := setupRamrd(rc)
	if err != nil {
		return err
	}
	defer d.stop()

	nOps := rc.sized(serveOpsPerSecond, 10)
	lists := serveSchedule(rc.seed, nOps, nClients)
	sr := &serveRun{rc: rc, base: d.url, http: newHTTPClient(nClients)}

	// Warm-up: untimed cold jobs with seeds of their own.
	for i := 0; i < rc.warmups(); i++ {
		p := jobParams{App: serveApps[i%len(serveApps)], Seed: subSeed(rc.seed, "serve-warmup", i)}
		if p.App == "SYNTH" {
			p.Elements = serveSynthElements
		}
		doc, _, jt, err := submit(sr.http, sr.base, encodeBody(p, "", 0))
		if err == nil {
			_, err = awaitResult(sr.http, sr.base, doc.ID, &jt)
		}
		if err != nil {
			return fmt.Errorf("warm-up job: %w", err)
		}
	}
	before, err := fetchStats(sr.http, sr.base)
	if err != nil {
		return err
	}

	// outcomes[c][i] is the digest (or pair count) operation i of client c
	// returned; "" until it succeeds.
	outcomes := make([][]string, nClients)
	var wg sync.WaitGroup
	begin := time.Now()
	for c := range lists {
		outcomes[c] = make([]string, len(lists[c]))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range lists[c] {
				sr.do(c, i, lists[c], outcomes[c])
			}
		}(c)
	}
	wg.Wait()
	rc.makespan = time.Since(begin)

	// Exact counts: the schedule fixes how many submissions hit the memo
	// cache and how many coalesce, so the daemon must report those.
	after, err := fetchStats(sr.http, sr.base)
	if err != nil {
		return err
	}
	var wantHits, wantCoalesced, wantMisses uint64
	for _, l := range lists {
		for _, op := range l {
			switch op.Kind {
			case opCold:
				wantMisses++
			case opRepeat:
				wantHits++
			case opDup:
				wantMisses += 2
				wantCoalesced++
			}
		}
	}
	hits := after.Memo.Hits - before.Memo.Hits
	misses := after.Memo.Misses - before.Memo.Misses
	coalesced := after.Memo.Coalesced - before.Memo.Coalesced
	evictions := after.Memo.Evictions - before.Memo.Evictions
	if hits != wantHits || misses != wantMisses || coalesced != wantCoalesced {
		res.fail("memo counters hits/misses/coalesced = %d/%d/%d, the schedule fixes %d/%d/%d",
			hits, misses, coalesced, wantHits, wantMisses, wantCoalesced)
	}
	res.Counts["ops"] = int64(nOps)
	res.Counts["clients"] = int64(nClients)
	res.Counts["cold_jobs"] = int64(len(sr.coldS))
	res.Counts["memo.hits"] = int64(hits)
	res.Counts["memo.misses"] = int64(misses)
	res.Counts["memo.coalesced"] = int64(coalesced)
	res.Counts["memo.evictions"] = int64(evictions)

	// A seeded 5 % of the cold jobs against an in-process Phoenix++ run.
	type coldJob struct {
		params  jobParams
		outcome string
	}
	var cold []coldJob
	for c, l := range lists {
		for i, op := range l {
			if op.Kind == opCold && outcomes[c][i] != "" {
				cold = append(cold, coldJob{op.Params, outcomes[c][i]})
			}
		}
	}
	for _, k := range sampleOps(rc.seed, "serve-verify", len(cold), 0.05) {
		ref, err := referenceRun(cold[k].params)
		if err != nil {
			return err
		}
		if cold[k].outcome != ref.String() {
			res.fail("cold job %+v: result %s, in-process Phoenix++ reference %s", cold[k].params, cold[k].outcome, ref)
		}
	}

	res.set("makespan_s", rc.makespan.Seconds())
	res.setTiming("cold_job_s_p50", sr.coldS, 0.5)
	res.setTiming("cold_job_s_p95", sr.coldS, 0.95)
	res.setTiming("hit_job_s_p50", sr.hitS, 0.5)
	if rc.tr != nil {
		sr.layerMetrics(after, float64(hits), float64(misses), float64(coalesced), float64(evictions))
	}
	res.set("peak_rss_mb", d.peakRSSMB())
	return nil
}

// do runs operation i of client c's list and records what it left.
func (sr *serveRun) do(c, i int, list []serveOp, outcomes []string) {
	res, tr := sr.rc.res, sr.rc.tr
	op := list[i]
	opID := c*1_000_000 + i + 1
	body := []byte(op.Body)
	sr.mu.Lock()
	res.Attempted++
	sr.mu.Unlock()
	fail := func(format string, args ...any) {
		sr.mu.Lock()
		res.fail("client %d op %d (%s): "+format, append([]any{c, i, op.Kind}, args...)...)
		sr.mu.Unlock()
	}

	doc, code, jt, err := submit(sr.http, sr.base, body)
	if err != nil {
		fail("POST: %v", err)
		return
	}
	switch op.Kind {
	case opRepeat:
		end := time.Now()
		if code != http.StatusOK || !doc.Cached {
			fail("status %d cached=%t, want a memo hit", code, doc.Cached)
			return
		}
		if want := outcomes[op.Target]; doc.outcome() != want {
			fail("cached result %s, its leader returned %s", doc.outcome(), want)
			return
		}
		outcomes[i] = doc.outcome()
		sr.mu.Lock()
		sr.hitS = append(sr.hitS, jt.postEnd.Sub(jt.postStart).Seconds())
		sr.allS = append(sr.allS, jt.postEnd.Sub(jt.postStart).Seconds())
		sr.mu.Unlock()
		if tr != nil {
			root := tr.root(opID, c, "repeat "+op.Params.App, jt.postStart, end)
			tr.child(root, opID, "POST /jobs (memo hit)", "memo", jt.postStart, jt.postEnd)
			tr.child(root, opID, "verify", "bench", jt.postEnd, end)
		}

	case opCold:
		if code != http.StatusCreated || doc.Cached || doc.Coalesced {
			fail("status %d cached=%t coalesced=%t, want a fresh execution", code, doc.Cached, doc.Coalesced)
			return
		}
		final, err := awaitResult(sr.http, sr.base, doc.ID, &jt)
		if err != nil {
			fail("%v", err)
			return
		}
		end := time.Now()
		outcomes[i] = final.outcome()
		e2e := jt.held.Sub(jt.postStart).Seconds()
		sr.mu.Lock()
		sr.coldS = append(sr.coldS, e2e)
		sr.allS = append(sr.allS, e2e)
		sr.mu.Unlock()
		if tr != nil {
			sr.traceCold(c, opID, op, jt, final, end)
		}

	case opDup:
		doc2, code2, jt2, err := submit(sr.http, sr.base, body)
		if err != nil {
			fail("second POST: %v", err)
			return
		}
		if code != http.StatusCreated || doc.Coalesced || code2 != http.StatusCreated || !doc2.Coalesced {
			fail("statuses %d/%d coalesced=%t/%t, want the second POST to coalesce onto the first", code, code2, doc.Coalesced, doc2.Coalesced)
			return
		}
		lead, err := awaitResult(sr.http, sr.base, doc.ID, &jt)
		if err != nil {
			fail("leader: %v", err)
			return
		}
		follow, err := awaitResult(sr.http, sr.base, doc2.ID, &jt2)
		if err != nil {
			fail("follower: %v", err)
			return
		}
		end := time.Now()
		if follow.outcome() != lead.outcome() {
			fail("coalesced result %s, its leader returned %s", follow.outcome(), lead.outcome())
			return
		}
		outcomes[i] = lead.outcome()
		sr.mu.Lock()
		sr.allS = append(sr.allS, jt.held.Sub(jt.postStart).Seconds(), jt2.held.Sub(jt2.postStart).Seconds())
		sr.mu.Unlock()
		if tr != nil {
			root := tr.root(opID, c, "dup "+op.Params.App, jt.postStart, end)
			tr.child(root, opID, "POST /jobs (leader)", "service", jt.postStart, jt.postEnd)
			tr.child(root, opID, "POST /jobs (coalesced)", "memo", jt2.postStart, jt2.postEnd)
			tr.child(root, opID, "await leader", "service", jt2.postEnd, jt.held)
			tr.child(root, opID, "await follower", "service", jt.held, jt2.held)
			tr.child(root, opID, "verify", "bench", jt2.held, end)
		}
	}
}

// traceCold records a cold job's span tree: the client's calls, with
// the daemon's own lifecycle spans (GET /jobs/{id}/trace, fetched after
// the job and accounted as trace-only time) and the engine phases of
// the result document synthesised under them.
func (sr *serveRun) traceCold(c, opID int, op serveOp, jt jobTimes, final *resultDoc, end time.Time) {
	tr := sr.rc.tr
	t0 := time.Now()
	spans, err := fetchTrace(sr.http, sr.base, final.ID, "queue-wait")
	tr.noteTraceOnly(time.Since(t0))
	if err != nil {
		sr.mu.Lock()
		sr.rc.res.fail("client %d job %d: fetching trace: %v", c, final.ID, err)
		sr.mu.Unlock()
		return
	}
	root := tr.root(opID, c, "cold "+op.Params.App, jt.postStart, end)
	post := tr.child(root, opID, "POST /jobs", "service", jt.postStart, jt.postEnd)
	for _, name := range []string{"receive", "build"} {
		if s, ok := spans[name]; ok {
			layer := "service"
			if name == "build" {
				layer = "workloads"
			}
			a, b := s.at(jt.postStart)
			tr.child(post, opID, name, layer, a, b)
		}
	}
	await := tr.child(root, opID, "await result", "service", jt.postEnd, jt.held)
	if s, ok := spans["queue-wait"]; ok {
		a, b := s.at(jt.postStart)
		qw := tr.child(await, opID, "queue-wait", "sched", a, b)
		if g, ok := spans["grant-alloc"]; ok {
			a, b := g.at(jt.postStart)
			tr.child(qw, opID, "grant-alloc", "sched", a, b)
		}
	}
	if s, ok := spans["execute"]; ok {
		a, b := s.at(jt.postStart)
		ex := tr.child(await, opID, "execute", "core", a, b)
		if final.Phases != nil {
			phaseSpans(tr, ex, opID, a, *final.Phases)
		}
	}
	tr.child(root, opID, "verify", "bench", jt.held, end)
	for _, p := range jt.polls {
		tr.auxSpan(opID, "GET result", "service", p.start, p.end)
	}

	build, queueWait, alloc, execute := spans["build"].dur, spans["queue-wait"].dur, spans["grant-alloc"].dur, spans["execute"].dur
	e2e := jt.held.Sub(jt.postStart)
	sr.mu.Lock()
	defer sr.mu.Unlock()
	sr.submitS = append(sr.submitS, jt.postEnd.Sub(jt.postStart).Seconds())
	sr.buildS = append(sr.buildS, build.Seconds())
	sr.queueS = append(sr.queueS, queueWait.Seconds())
	sr.allocS = append(sr.allocS, alloc.Seconds())
	sr.overheadS = append(sr.overheadS, (e2e - build - queueWait - execute).Seconds())
	sr.resultB = append(sr.resultB, float64(jt.resultBytes))
	if fin := parseTime(final.Finished); !fin.IsZero() {
		sr.pollWaitS = append(sr.pollWaitS, jt.held.Sub(fin).Seconds())
	}
	if final.Queue != nil {
		addQueue(&sr.queue, *final.Queue)
	}
}

// layerMetrics fills serve_mixed's per-layer metrics after a traced pass.
func (sr *serveRun) layerMetrics(st *statsDoc, hits, misses, coalesced, evictions float64) {
	res := sr.rc.res
	res.setTiming("workloads.build_s_p50", sr.buildS, 0.5)
	res.setTiming("sched.queue_wait_s_p50", sr.queueS, 0.5)
	res.setTiming("sched.grant_alloc_s_p50", sr.allocS, 0.5)
	res.set("sched.rejected", float64(st.Scheduler.Rejected))
	if hits+misses > 0 {
		res.set("memo.hit_share", hits/(hits+misses))
	}
	res.set("memo.coalesced", coalesced)
	res.set("memo.evictions", evictions)
	res.setTiming("service.submit_s_p50", sr.submitS, 0.5)
	res.setTiming("service.poll_wait_s_p50", sr.pollWaitS, 0.5)
	res.setTiming("service.overhead_s_p50", sr.overheadS, 0.5)
	res.setTiming("service.result_bytes_p50", sr.resultB, 0.5)
	if n := float64(len(sr.buildS)); n > 0 {
		setQueueShares(res, sr.queue, n)
	}

	samples, err := scrapeMetrics(sr.http, sr.base)
	if err != nil {
		res.fail("scraping /metrics: %v", err)
		return
	}
	res.set("service.metrics_series", float64(len(samples)))
	// The daemon's own end-to-end histogram against the clients' clocks:
	// more than 10 % apart is a bug in one of them. The histogram also
	// holds the warm-up jobs, which the clients' mean does not.
	if count := promSum(samples, "ramr_job_e2e_seconds_count"); count > 0 {
		server := promSum(samples, "ramr_job_e2e_seconds_sum") / count
		client := mean(sr.allS)
		res.set("service.e2e_hist_gap", (client-server)/client)
		res.Notes["service.e2e_hist_gap"] = fmt.Sprintf("client mean %.4fs over %d POSTs, ramr_job_e2e_seconds mean %.4fs over %.0f", client, len(sr.allS), server, count)
	}
	if count := promSum(samples, "ramr_job_queue_wait_seconds_count"); count > 0 {
		res.Notes["sched.queue_wait_s_p50"] = fmt.Sprintf("trace spans mean %.5fs, ramr_job_queue_wait_seconds mean %.5fs",
			mean(sr.queueS), promSum(samples, "ramr_job_queue_wait_seconds_sum")/count)
	}
}
