package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"ramr/internal/obs"
	"ramr/internal/service"
	"ramr/internal/workloads"
)

// Result is one cluster job's merged outcome.
type Result struct {
	// App is the workload's short name.
	App string `json:"app"`
	// Shards is the number of data shards the job was split into.
	Shards int `json:"shards"`
	// Digest is the merged output digest (hex) — byte-identical to the
	// digest a single-node run of the same request reports, because the
	// merge re-applies the app's exact per-pair fold over the key-summed
	// union of the shard containers.
	Digest string `json:"digest"`
	// Pairs is the number of distinct output keys after the merge.
	Pairs int `json:"pairs"`
	// WallMS is the end-to-end coordinator wall time.
	WallMS float64 `json:"wall_ms"`
	// MergeMS is the final-reduce portion.
	MergeMS float64 `json:"merge_ms"`
	// PerShard reports each shard's dispatch history, by shard index.
	PerShard []ShardResult `json:"per_shard"`
	// Merged is the merged key→value container.
	Merged *workloads.Partial `json:"merged,omitempty"`
}

// ShardResult is one shard's dispatch record.
type ShardResult struct {
	Shard  string `json:"shard"` // "index/count"
	Worker string `json:"worker"`
	// JobID is the worker-side job id that produced the partial.
	JobID int `json:"job_id"`
	// Cached marks a shard-level memo hit on the worker.
	Cached bool `json:"cached,omitempty"`
	// WallMS is the worker's engine time, BuildMS its input build before it.
	WallMS  float64 `json:"wall_ms"`
	BuildMS float64 `json:"build_ms"`
	Pairs   int     `json:"pairs"`
	// Attempts counts dispatch attempts (1 = first try succeeded).
	Attempts int `json:"attempts"`
	// Replaced counts 429-driven re-placements onto farther candidates.
	Replaced int `json:"replaced,omitempty"`
	// Resharded marks a shard re-dispatched after its worker died.
	Resharded bool `json:"resharded,omitempty"`
}

// workerDoc is the subset of the worker's job documents the coordinator
// reads back (service.resultDoc over the wire).
type workerDoc struct {
	ID      int                `json:"id"`
	State   string             `json:"state"`
	Error   string             `json:"error"`
	Cached  bool               `json:"cached"`
	WallMS  float64            `json:"wall_ms"`
	BuildMS float64            `json:"build_ms"`
	Pairs   int                `json:"pairs"`
	Partial *workloads.Partial `json:"partial"`
}

// errWorkerDown marks a worker that stopped answering; the dispatch loop
// reshards past it instead of giving up.
var errWorkerDown = errors.New("worker unreachable")

// errSaturated marks a 429; the dispatch loop re-places immediately.
var errSaturated = errors.New("worker saturated")

// fatalShardError wraps a worker-side job failure — the shard itself is
// bad (every worker would fail it identically) — or a worker answering in
// another protocol generation, a misconfiguration that must fail loudly:
// the cluster job aborts instead of retrying.
type fatalShardError struct{ err error }

func (e *fatalShardError) Error() string { return e.err.Error() }

// Run dispatches req across the cluster: shard, place, dispatch with
// retry/re-placement/reshard, and the final merge. rec, when non-nil,
// receives the job's dispatch and merge spans.
func (c *Coordinator) Run(ctx context.Context, req *service.JobRequest, rec *obs.Recorder) (*Result, error) {
	start := time.Now()
	if err := validateRequest(req); err != nil {
		return nil, err
	}
	app := strings.ToUpper(strings.TrimSpace(req.Workload))
	c.met.jobs.Add(1)
	res, err := c.run(ctx, req, app, rec, start)
	if err != nil {
		c.met.jobErrors.Add(1)
		return nil, err
	}
	return res, nil
}

func (c *Coordinator) run(ctx context.Context, req *service.JobRequest, app string, rec *obs.Recorder, start time.Time) (*Result, error) {
	c.log.Info("cluster: dispatching job", "app", app,
		"shards", c.cfg.Shards, "workers", len(c.workers))

	shards := c.shardSpecs()
	results := make([]ShardResult, len(shards))
	partials := make([]*workloads.Partial, len(shards))
	grp, gctx := errgroupWithContext(ctx)
	for i, sh := range shards {
		i, sh := i, sh
		grp.Go(func() error {
			sr, part, err := c.dispatchShard(gctx, req, sh, rec)
			if err != nil {
				return fmt.Errorf("shard %s: %w", sh, err)
			}
			results[i] = sr
			partials[i] = part
			return nil
		})
	}
	if err := grp.Wait(); err != nil {
		return nil, err
	}

	mergeStart := time.Now()
	merged, err := workloads.MergePartials(partials)
	if err != nil {
		return nil, fmt.Errorf("merging partials: %v", err)
	}
	pairs, digest, err := merged.Summary()
	if err != nil {
		return nil, fmt.Errorf("summarizing merge: %v", err)
	}
	mergeEnd := time.Now()
	rec.SpanAt("merge", mergeStart, mergeEnd, map[string]any{
		"shards": len(partials), "pairs": pairs,
	})
	c.met.merges.Add(1)
	c.met.mergeSeconds.Observe(mergeEnd.Sub(mergeStart).Seconds(), app)

	res := &Result{
		App:      app,
		Shards:   len(shards),
		Digest:   fmt.Sprintf("%016x", digest),
		Pairs:    pairs,
		WallMS:   float64(time.Since(start)) / float64(time.Millisecond),
		MergeMS:  float64(mergeEnd.Sub(mergeStart)) / float64(time.Millisecond),
		PerShard: results,
		Merged:   merged,
	}
	c.log.Info("cluster: job merged", "app", app, "shards", len(shards),
		"pairs", pairs, "digest", res.Digest, "wall_ms", res.WallMS)
	return res, nil
}

// dispatchShard runs one shard to completion somewhere on the cluster:
// walk the shard's placement order, recently failed workers last,
// re-placing on saturation, marking workers down (and resharding) when
// they stop answering, with an exponential backoff between full passes.
func (c *Coordinator) dispatchShard(ctx context.Context, req *service.JobRequest, sh workloads.ShardSpec, rec *obs.Recorder) (ShardResult, *workloads.Partial, error) {
	body, err := shardBody(req, sh)
	if err != nil {
		return ShardResult{}, nil, err
	}
	order := c.placement(sh.Index)
	sr := ShardResult{Shard: sh.String()}
	admittedOnce := false // a worker admitted the shard job once → a later worker loss is a reshard
	for pass := 0; pass < c.cfg.Retries; pass++ {
		if pass > 0 {
			backoff := c.cfg.Backoff << (pass - 1)
			c.met.retries.Add(1)
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return sr, nil, ctx.Err()
			}
		}
		for _, wi := range c.candidates(order) {
			w := c.workers[wi]
			if err := ctx.Err(); err != nil {
				return sr, nil, err
			}
			sr.Attempts++
			dispatchStart := time.Now()
			doc, admitted, err := c.runShardOn(ctx, w, body)
			if admitted {
				admittedOnce = true
			}
			if err != nil && ctx.Err() != nil {
				// The job was cancelled (or a sibling shard failed) under
				// the exchange: that says nothing about the worker.
				return sr, nil, ctx.Err()
			}
			w.mark(err)
			switch {
			case err == nil:
				sr.Worker = w.spec.URL
				sr.JobID = doc.ID
				sr.Cached = doc.Cached
				sr.WallMS, sr.BuildMS = doc.WallMS, doc.BuildMS
				sr.Pairs = doc.Partial.Len()
				c.met.shards.Add(1)
				if doc.Cached {
					c.met.memoHits.Add(1)
				}
				rec.SpanAt("shard-"+sh.String(), dispatchStart, time.Now(), map[string]any{
					"worker": w.spec.URL, "job_id": doc.ID, "cached": doc.Cached,
					"attempts": sr.Attempts, "pairs": sr.Pairs, "build_ms": sr.BuildMS,
				})
				return sr, doc.Partial, nil
			case errors.Is(err, errSaturated):
				// The worker is healthy but full: spill to the next
				// candidate in link-cost order, like a steal attempt
				// walking outward past a busy group.
				sr.Replaced++
				c.met.replacements.Add(1)
				rec.Instant("replaced", map[string]any{
					"shard": sh.String(), "worker": w.spec.URL,
				})
				c.log.Info("cluster: shard re-placed off saturated worker",
					"shard", sh.String(), "worker", w.spec.URL)
			case errors.Is(err, errWorkerDown):
				if admittedOnce {
					sr.Resharded = true
					c.met.reshards.Add(1)
					rec.Instant("resharded", map[string]any{
						"shard": sh.String(), "worker": w.spec.URL,
					})
				}
				c.log.Warn("cluster: worker marked down, resharding",
					"shard", sh.String(), "worker", w.spec.URL, "err", err)
			default:
				var fatal *fatalShardError
				if errors.As(err, &fatal) {
					return sr, nil, fatal.err
				}
				c.log.Warn("cluster: shard attempt failed",
					"shard", sh.String(), "worker", w.spec.URL, "err", err)
			}
		}
	}
	return sr, nil, fmt.Errorf("no worker completed the shard after %d passes over %d candidates",
		c.cfg.Retries, len(order))
}

// shardBody renders the worker-facing submission: the client's request
// with the coordinator's shard coordinates injected. Scheduling hints
// and config overlays pass through untouched, so a cluster job tunes its
// workers exactly like a direct submission would.
func shardBody(req *service.JobRequest, sh workloads.ShardSpec) ([]byte, error) {
	r := *req
	r.Shard = &sh
	body, err := json.Marshal(&r)
	if err != nil {
		return nil, fmt.Errorf("encoding shard request: %v", err)
	}
	return body, nil
}

// minResultTurnaround floors one turn of runShardOn's wait loop. A worker
// honouring ?wait= answers 202 only after the whole wait lapsed, so the
// floor never bites; it is there so that an early 202 — an intermediary
// answering for the worker, a worker whose clock jumped — cannot turn the
// loop into a spin.
const minResultTurnaround = 25 * time.Millisecond

// runShardOn submits the shard to one worker and waits for its terminal
// state on the worker's GET /jobs/{id}/result?wait=: the request returns
// the moment the shard job settles, not on a polling timer. The admitted
// flag reports whether the worker accepted the shard
// job — a worker lost after admission is a mid-shard death (a reshard),
// before admission just a placement miss. Error classes: errSaturated
// (429 at admission), errWorkerDown (transport failure or 5xx — the
// worker, not the shard — which includes a shard job the worker reports
// canceled: someone cancelled it there, or the worker drained under it),
// fatalShardError (the worker ran the shard and failed it, or answered in
// another generation), or a plain error. A shard job abandoned because ctx
// ended — the cluster job was cancelled, a sibling shard failed, the shard
// timed out — is cancelled on the worker, so it stops holding the worker's
// CPUs.
func (c *Coordinator) runShardOn(ctx context.Context, w *worker, body []byte) (doc *workerDoc, admitted bool, err error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
	defer cancel()
	doc, err = c.postJob(ctx, w, body)
	if err != nil {
		return nil, false, err
	}
	if doc.Cached {
		if doc.Partial == nil {
			return nil, true, &fatalShardError{fmt.Errorf("worker %s served a cached shard without a partial (memo entry from an unsharded run?)", w.spec.URL)}
		}
		return doc, true, nil
	}
	id := doc.ID
	defer func() {
		if ctx.Err() != nil {
			c.cancelOnWorker(w, id)
		}
	}()
	for {
		asked := time.Now()
		doc, err = c.getResult(ctx, w, id)
		if err != nil {
			return nil, true, err
		}
		if doc == nil { // still running: the wait lapsed
			select {
			case <-time.After(minResultTurnaround - time.Since(asked)):
			case <-ctx.Done():
				return nil, true, ctx.Err()
			}
			continue
		}
		switch doc.State {
		case "done":
			if doc.Partial == nil {
				return nil, true, &fatalShardError{fmt.Errorf("worker %s finished the shard without a partial", w.spec.URL)}
			}
			return doc, true, nil
		case "canceled":
			return nil, true, fmt.Errorf("%w: %s: shard job canceled on worker", errWorkerDown, w.spec.URL)
		default:
			return nil, true, &fatalShardError{fmt.Errorf("shard failed on worker %s: %s", w.spec.URL, doc.Error)}
		}
	}
}

// send makes one exchange with w. Every request carries the
// coordinator's generation (service.ProtoHeader), so a current worker
// refuses a shard from another one before admitting it; a transport
// failure is errWorkerDown.
func (c *Coordinator) send(ctx context.Context, w *worker, method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, w.spec.URL+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set(service.ProtoHeader, service.ProtoVersion)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", errWorkerDown, w.spec.URL, err)
	}
	return resp, nil
}

// checkGeneration reads an answer's generation before its status is acted
// on. An answer naming another generation is a mismatch, and so is a 2xx
// naming none: nothing without a generation may feed the merge. A mismatch
// fails the job, naming the worker and both generations, and a shard job
// the answer admitted (201) is cancelled there. A non-2xx answer without
// the header keeps its status's class, so an intermediary's 502 still
// reshards.
func (c *Coordinator) checkGeneration(w *worker, resp *http.Response) error {
	proto := resp.Header.Get(service.ProtoHeader)
	if proto == service.ProtoVersion || proto == "" && resp.StatusCode/100 != 2 {
		return nil
	}
	if resp.StatusCode == http.StatusCreated {
		var doc struct {
			ID int `json:"id"`
		}
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&doc) == nil && doc.ID != 0 {
			c.cancelOnWorker(w, doc.ID)
		}
	}
	return &fatalShardError{fmt.Errorf("worker %s speaks protocol %q, coordinator requires %q (upgrade the worker or the coordinator so generations match)",
		w.spec.URL, proto, service.ProtoVersion)}
}

// postJob submits the shard body to the worker's POST /jobs.
func (c *Coordinator) postJob(ctx context.Context, w *worker, body []byte) (*workerDoc, error) {
	resp, err := c.send(ctx, w, http.MethodPost, "/jobs", body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if err := c.checkGeneration(w, resp); err != nil {
		return nil, err
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, errSaturated
	case resp.StatusCode == http.StatusBadRequest:
		return nil, &fatalShardError{fmt.Errorf("worker %s rejected the shard: %s", w.spec.URL, readErr(resp.Body))}
	case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated:
		return nil, fmt.Errorf("%w: %s: POST /jobs returned %d: %s", errWorkerDown, w.spec.URL, resp.StatusCode, readErr(resp.Body))
	}
	var doc workerDoc
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&doc); err != nil {
		return nil, fmt.Errorf("%w: %s: decoding submit response: %v", errWorkerDown, w.spec.URL, err)
	}
	return &doc, nil
}

// cancelOnWorker is the best-effort DELETE of an abandoned shard job. Its
// caller's context is already over, so it runs under a short one of its
// own; a failure only means the shard job runs to completion unobserved.
func (c *Coordinator) cancelOnWorker(w *worker, id int) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	resp, err := c.send(ctx, w, http.MethodDelete, fmt.Sprintf("/jobs/%d", id), nil)
	if err != nil {
		c.log.Info("cluster: could not cancel abandoned shard job", "worker", w.spec.URL, "job_id", id, "err", err)
		return
	}
	resp.Body.Close()
}

// getResult asks the worker's GET /jobs/{id}/result to wait for the job:
// the terminal document, or (nil, nil) when the wait lapsed with the job
// still queued or running (202). The wait is half the per-exchange
// timeout, so a worker that stops answering mid-wait is still noticed
// within RequestTimeout.
func (c *Coordinator) getResult(ctx context.Context, w *worker, id int) (*workerDoc, error) {
	resp, err := c.send(ctx, w, http.MethodGet, fmt.Sprintf("/jobs/%d/result?wait=%s", id,
		(c.cfg.RequestTimeout/2).Truncate(time.Millisecond)), nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if err := c.checkGeneration(w, resp); err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
		return nil, nil
	case http.StatusOK:
		var doc workerDoc
		if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&doc); err != nil {
			return nil, fmt.Errorf("%w: %s: decoding result: %v", errWorkerDown, w.spec.URL, err)
		}
		return &doc, nil
	default:
		return nil, fmt.Errorf("%w: %s: GET result returned %d: %s", errWorkerDown, w.spec.URL, resp.StatusCode, readErr(resp.Body))
	}
}

// readErr extracts the {"error": ...} body of a failed worker response.
func readErr(r io.Reader) string {
	b, _ := io.ReadAll(io.LimitReader(r, 4096))
	var doc struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(b, &doc) == nil && doc.Error != "" {
		return doc.Error
	}
	return strings.TrimSpace(string(b))
}
