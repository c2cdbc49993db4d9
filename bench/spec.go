package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// metricDef names one metric. Bound is the share of the baseline median
// by which an end-to-end metric may worsen before a change counts as a
// regression; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	// Native lists the workloads that measure the metric directly. On
	// every other workload an end-to-end metric carries the workload's
	// headline figure (see result.fillAliases) and a per-layer metric
	// reads 0: the layer is not exercised there.
	Native []string
}

const (
	wBatchCombine = "batch_combine"
	wBatchMap     = "batch_map"
	wServeMixed   = "serve_mixed"
	wStreamIngest = "stream_ingest"
	wClusterShard = "cluster_shard"
)

var (
	allWorkloads = []string{wBatchCombine, wBatchMap, wServeMixed, wStreamIngest, wClusterShard}
	batchOnly    = []string{wBatchCombine, wBatchMap}
	daemonJobs   = []string{wServeMixed, wClusterShard}
)

// endToEnd is what a user of the system sees. failed_share is carried
// by the contract's attempted/failed counts (an end-to-end metric may
// never read 0) and listed with the per-layer metrics.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Native: allWorkloads},
	{Name: "makespan_s", Unit: "s", Better: "lower", Bound: 0.25, Native: allWorkloads},
	{Name: "round_s_p50", Unit: "s", Better: "lower", Bound: 0.25, Native: batchOnly},
	{Name: "cold_job_s_p50", Unit: "s", Better: "lower", Bound: 0.25, Native: daemonJobs},
	{Name: "cold_job_s_p95", Unit: "s", Better: "lower", Bound: 0.25, Native: []string{wServeMixed}},
	{Name: "hit_job_s_p50", Unit: "s", Better: "lower", Bound: 0.25, Native: []string{wServeMixed}},
	{Name: "ingest_elems_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Native: []string{wStreamIngest}},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, Native: allWorkloads},
}

// Job variants of the two library workloads; their names expand
// core.run_s.<app>.
var (
	combineApps = []string{"WC.hash", "WC.fixedhash", "HG.fixedarray", "HG.fixedhash", "LR.fixedarray"}
	mapApps     = []string{"MM", "KM", "PCA", "SYNTH", "SYNTH.skew"}
)

var (
	containerKinds = []string{"fixedarray", "fixedhash", "hash"}
	keyDists       = []string{"uniform", "zipf"}
)

// perLayer is built once: one metric per layer boundary, each with the
// end-to-end metric it should move named in bench/README.md.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lower := func(name, unit string, native ...string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: "lower", Native: native}
	}
	higher := func(name, unit string, native ...string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: "higher", Native: native}
	}
	serve, stream, cluster := wServeMixed, wStreamIngest, wClusterShard
	var ms []metricDef
	ms = append(ms, lower("workloads.build_s_p50", "s", wBatchCombine, wBatchMap, serve))
	for _, a := range combineApps {
		ms = append(ms, lower("core.run_s."+a, "s", wBatchCombine))
	}
	for _, a := range mapApps {
		ms = append(ms, lower("core.run_s."+a, "s", wBatchMap))
	}
	ms = append(ms,
		lower("core.map_combine_s", "s", batchOnly...),
		lower("core.reduce_s", "s", batchOnly...),
		lower("core.merge_s", "s", batchOnly...),
		lower("core.alloc_mb_per_round", "MB", batchOnly...),
		lower("core.gc_cycles_per_round", "count", batchOnly...),
		higher("core.steal_share", "share", wBatchMap),
		lower("core.pinned_round_ratio", "ratio", batchOnly...),
		lower("phoenix.round_s_p50", "s", batchOnly...),
		lower("phoenix.ratio", "ratio", batchOnly...),
		lower("simarch.ratio_predicted", "ratio", batchOnly...),
		lower("simarch.ratio_residual", "ratio", batchOnly...),
		lower("spsc.elem_ns", "ns", allWorkloads...),
		lower("spsc.failed_push_share", "share", wBatchCombine, wBatchMap, serve),
		lower("spsc.empty_poll_share", "share", wBatchCombine, wBatchMap, serve),
		lower("spsc.short_poll_share", "share", wBatchCombine, wBatchMap, serve),
		lower("spsc.sleep_s", "s", wBatchCombine, wBatchMap, serve),
	)
	for _, k := range containerKinds {
		for _, d := range keyDists {
			ms = append(ms, lower("container.update_ns."+k+"."+d, "ns", allWorkloads...))
		}
	}
	ms = append(ms,
		lower("container.merge_ns_per_key", "ns", allWorkloads...),
		lower("sched.queue_wait_s_p50", "s", serve),
		lower("sched.grant_alloc_s_p50", "s", serve),
		lower("sched.rejected", "count", serve, stream),
		lower("sched.submit_grant_s.depth0", "s", allWorkloads...),
		lower("sched.submit_grant_s.depth8", "s", allWorkloads...),
		higher("memo.hit_share", "share", serve),
		higher("memo.coalesced", "count", serve),
		lower("memo.evictions", "count", serve),
		lower("memo.get_ns", "ns", allWorkloads...),
		lower("service.submit_s_p50", "s", serve),
		lower("service.poll_wait_s_p50", "s", serve),
		lower("service.overhead_s_p50", "s", serve),
		lower("service.result_bytes_p50", "bytes", serve),
		lower("service.metrics_series", "count", serve, stream),
		lower("service.e2e_hist_gap", "share", serve),
		lower("seal_lag_s_p50", "s", stream),
		lower("stream.append_s_p50", "s", stream),
		lower("stream.backpressure_share", "share", stream),
		lower("stream.close_s", "s", stream),
		lower("stream.seal_lag_s_p95", "s", stream),
		lower("stream.failed_push_share", "share", stream),
		lower("cluster.overhead_s_p50", "s", cluster),
		lower("cluster.merge_ms_p50", "ms", cluster),
		lower("cluster.attempts_per_shard", "count", cluster),
		lower("cluster.partial_bytes_p50", "bytes", cluster),
		lower("bench.trace_overhead_share", "share", allWorkloads...),
		lower("failed_share", "share", allWorkloads...),
	)
	return ms
}

// workloadDef is one named, seeded list of operations.
type workloadDef struct {
	Name string
	Why  string
	run  func(*runCtx) error
}

var workloadDefs = []workloadDef{
	{wBatchCombine, "library path, tiny per-pair work, so spsc, container and the emit path dominate: 19 rounds of {WC/hash, WC/fixedhash, HG/fixedarray, HG/fixedhash, LR} at HWL-Large on RAMR, one caller", runBatchCombine},
	{wBatchMap, "library path, the user map function dominates, so a queue or container change predicts no move: 16 rounds of {MM, KM, PCA Large, CPU-map SYNTH, the same with skew 1.5}, one caller", runBatchMap},
	{wServeMixed, "one default ramrd, min(nproc,4) closed-loop clients, 500 ops: 60% cold HWL-Small jobs, 30% memo repeats, 10% duplicate-in-flight; service, sched, memo and in-request input build dominate", runServeMixed},
	{wStreamIngest, "one resident SYNTH session, 2000-element chunks, window 10: 500 chunks open loop at 100/s, then 1250 closed loop under 429 backpressure; the kernel run resident and pane-windowed", runStreamIngest},
	{wClusterShard, "two ramrd workers behind one ramrc, one closed-loop client, 39 cold jobs cycling WC, HG, SYNTH at HWL-Large: dispatch, shard polling, partial encoding and MergePartials", runClusterShard},
}

// runSeconds is BENCHMARK.json's run_seconds: the run length the
// operation counts above are sized for.
const runSeconds = 10

// benchmarkJSON renders BENCHMARK.json from the tables in this file, so
// the contract file cannot drift from what the program emits.
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadDefs {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n'), err
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func isNative(m metricDef, workload string) bool { return slices.Contains(m.Native, workload) }

// result is one run's outcome: the metrics by name plus the exact counts
// that must repeat run to run.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Samples is the sample count behind each timing metric; Notes says
	// which percentile a tail metric could support.
	Samples map[string]int    `json:"samples,omitempty"`
	Notes   map[string]string `json:"notes,omitempty"`
	// Counts are fixed by the schedule and must repeat exactly.
	Counts map[string]int64 `json:"counts,omitempty"`
	// LayerSelfS is the traced pass's attribution: self time in seconds
	// summed by layer over every operation, with the operations' total
	// span under "(operations)".
	LayerSelfS map[string]float64 `json:"layer_self_s,omitempty"`
	Failures   []string           `json:"failures,omitempty"`
}

func newResult(workload string, seed int64, seconds int, traced bool) *result {
	return &result{
		Workload: workload, Seed: seed, Seconds: seconds, Traced: traced,
		Metrics: map[string]float64{}, Samples: map[string]int{},
		Notes: map[string]string{}, Counts: map[string]int64{},
	}
}

func (r *result) set(name string, v float64) { r.Metrics[name] = v }

// setTiming records a median (q = 0.5) or a tail percentile of samples
// under name, with the sample count and, for a tail the sample cannot
// support, the percentile actually reported.
func (r *result) setTiming(name string, samples []float64, q float64) {
	used := q
	if q > 0.5 {
		used = tailQuantile(len(samples), q)
	}
	r.Metrics[name] = quantile(samples, used)
	r.Samples[name] = len(samples)
	if used != q {
		r.Notes[name] = fmt.Sprintf("p%.0f reported: %d samples support no higher", used*100, len(samples))
	}
}

// fail records one failed operation or check.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// fillAliases makes every end-to-end metric present, as the benchmark
// contract requires of each run: a metric with no sample of its kind on
// this workload carries the workload's headline figure — makespan_s for
// a time, operations per second for a rate. Only native pairs may back
// a claim; bench/README.md has the table.
func (r *result) fillAliases() {
	makespan := r.Metrics["makespan_s"]
	for _, m := range endToEnd {
		if _, ok := r.Metrics[m.Name]; ok {
			continue
		}
		if m.Better == "higher" {
			if makespan > 0 {
				r.Metrics[m.Name] = float64(r.Attempted) / makespan
			}
		} else {
			r.Metrics[m.Name] = makespan
		}
		r.Notes[m.Name] = "not native here: carries the headline figure"
	}
}

func (r *result) failedShare() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// correct reports whether the run may stand: nothing failed and every
// metric of the pass is finite.
func (r *result) correct() bool {
	if r.Failed > 0 || r.Attempted < 1 {
		return false
	}
	for _, v := range r.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// operationsKey is LayerSelfS's entry for the summed operation spans.
const operationsKey = "(operations)"

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// defsFor returns the metric list a pass reports.
func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// contractLine renders the last line of standard output the benchmark
// contract asks for: every metric of the pass, each value with all its
// measured digits.
func (r *result) contractLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, map[string]value{}}
	for _, m := range defsFor(r.Traced) {
		v := r.Metrics[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // JSON has no such number; correct is already false
		}
		line.Metrics[m.Name] = value{v, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // finite numbers and strings always encode
	}
	return string(b)
}

// fmtValue prints a value for the human table.
func fmtValue(v float64) string { return fmt.Sprintf("%.9g", v) }

// printTable prints every metric of the pass by name with its unit.
func (r *result) printTable(w *strings.Builder) {
	pass := "end-to-end"
	if r.Traced {
		pass = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s seed=%d %s: attempted=%d failed=%d\n", r.Workload, r.Seed, pass, r.Attempted, r.Failed)
	for _, m := range defsFor(r.Traced) {
		if r.Traced && !isNative(m, r.Workload) {
			continue
		}
		line := fmt.Sprintf("  %-38s %14s %-6s", m.Name, fmtValue(r.Metrics[m.Name]), m.Unit)
		if n, ok := r.Samples[m.Name]; ok {
			line += fmt.Sprintf(" n=%d", n)
		}
		if note := r.Notes[m.Name]; note != "" {
			line += "  (" + note + ")"
		}
		fmt.Fprintln(w, line)
	}
	if total := r.LayerSelfS[operationsKey]; total > 0 {
		fmt.Fprintf(w, "  self time by layer, of %.3f s in operation spans:\n", total)
		for _, k := range sortedKeys(r.LayerSelfS) {
			if k != operationsKey {
				fmt.Fprintf(w, "    %-36s %12.4f s %5.1f%%\n", k, r.LayerSelfS[k], 100*r.LayerSelfS[k]/total)
			}
		}
	}
	for _, k := range sortedKeys(r.Counts) {
		fmt.Fprintf(w, "  count %-32s %14d\n", k, r.Counts[k])
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}
