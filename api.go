// Package ramr is the public API of the RAMR library — a Go implementation
// of the resource-aware, decoupled MapReduce runtime of Iliakis, Xydis and
// Soudris ("Resource-Aware MapReduce Runtime for Multi/Many-core
// Architectures", DATE 2020) together with a faithful Phoenix++-style
// baseline for comparison.
//
// A job is described once as a Spec — splits, a Map function, an
// associative Combine, a Reduce and a container factory — and can then be
// executed by either engine:
//
//	spec := &ramr.Spec[string, string, int, int]{
//		Name:         "wordcount",
//		Splits:       chunks,
//		Map:          mapWords,
//		Combine:      ramr.Sum[int](),
//		Reduce:       ramr.IdentityReduce[string, int](),
//		NewContainer: ramr.HashFactory[string, int](),
//	}
//	res, err := ramr.Run(spec, ramr.DefaultConfig())        // RAMR
//	base, err := ramr.RunPhoenix(spec, ramr.DefaultConfig()) // Phoenix++
//
// The RAMR engine decouples map and combine onto two thread pools that
// communicate through per-mapper lock-free SPSC queues, overlapping the
// compute-intensive map with the memory-intensive combine, and pins
// co-operating threads to adjacent logical CPUs (Linux; elsewhere pinning
// degrades to a no-op). Every knob from the paper — mapper/combiner ratio,
// queue capacity, consume batch size, emit batch size, task size, wait
// policy, pin policy — is a Config field, overridable through RAMR_*
// environment variables.
package ramr

import (
	"context"

	"ramr/internal/container"
	"ramr/internal/core"
	"ramr/internal/memo"
	"ramr/internal/mr"
	"ramr/internal/obs"
	"ramr/internal/telemetry"
	"ramr/internal/topology"
	"ramr/internal/tuner"
)

// Spec describes a MapReduce job; see the mr package for field semantics.
type Spec[S any, K comparable, V, R any] = mr.Spec[S, K, V, R]

// Pair is one key-value element of a job's output.
type Pair[K comparable, R any] = mr.Pair[K, R]

// Result is a completed job's output and execution profile.
type Result[K comparable, R any] = mr.Result[K, R]

// Config carries the runtime tuning knobs.
type Config = mr.Config

// StreamSpec configures windowed streaming ingestion (Config.Stream):
// tumbling or sliding event-time windows over chunks appended to a
// resident pipeline, with watermark-triggered seals and a bounded
// pending-split admission window. Batch runs leave Config.Stream nil;
// see internal/stream for the resident pipeline itself.
type StreamSpec = mr.StreamSpec

// PhaseTimes is the per-phase wall-clock profile of a run.
type PhaseTimes = mr.PhaseTimes

// PinPolicy selects thread placement (PinRAMR, PinRoundRobin, PinNone).
type PinPolicy = mr.PinPolicy

// Pin policies, re-exported from the job model.
const (
	PinRAMR       = mr.PinRAMR
	PinRoundRobin = mr.PinRoundRobin
	PinNone       = mr.PinNone
)

// Machine describes a processor topology for pinning decisions.
type Machine = topology.Machine

// Container is the intermediate key-value store interface.
type Container[K comparable, V any] = container.Container[K, V]

// DefaultConfig returns a runnable configuration for the current host.
func DefaultConfig() Config { return mr.DefaultConfig() }

// ConfigFromEnv returns DefaultConfig overridden by RAMR_* environment
// variables.
func ConfigFromEnv() (Config, error) { return mr.FromEnv() }

// Run executes the job with the RAMR engine (decoupled, overlapped
// map/combine with contention-aware pinning).
func Run[S any, K comparable, V, R any](spec *Spec[S, K, V, R], cfg Config) (*Result[K, R], error) {
	return core.Run(spec, cfg)
}

// RunPhoenix executes the job with the Phoenix++-style baseline engine
// (fused map+combine per worker, unpinned, one shared task deque).
func RunPhoenix[S any, K comparable, V, R any](spec *Spec[S, K, V, R], cfg Config) (*Result[K, R], error) {
	return core.RunPhoenixContext(context.Background(), spec, cfg)
}

// IdentityReduce returns a pass-through Reduce for jobs whose combined
// value is the final value.
func IdentityReduce[K comparable, V any]() func(K, V) V {
	return mr.IdentityReduce[K, V]()
}

// Sum returns the additive combine, a + b. Use Sum when the combine is
// addition; containers fold it inline, where any other combine costs a
// call per pair.
func Sum[V container.Number]() func(a, b V) V {
	return mr.Sum[V]()
}

// HashFactory returns a container factory producing regular (dynamically
// growing) hash containers — the default Word Count container. Any
// comparable K works: string keys hash with a per-table seed, int and
// uint64 keys from the key itself, any other key with the runtime's own
// seeded hash (hash/maphash.Comparable).
func HashFactory[K comparable, V any]() container.Factory[K, V] {
	return func() Container[K, V] { return container.NewHash[K, V]() }
}

// FixedArrayFactory returns a factory producing dense array containers for
// integer keys in [0, size) — the default container for apps whose key
// range is known a priori.
func FixedArrayFactory[V any](size int) container.Factory[int, V] {
	return func() Container[int, V] { return container.NewFixedArray[V](size) }
}

// FixedHashFactory returns a factory producing fixed-capacity
// open-addressing hash containers — the memory-intensive configuration of
// the paper's Figs. 8b/9b.
func FixedHashFactory[K comparable, V any](maxKeys int, hash func(K) uint64) container.Factory[K, V] {
	return func() Container[K, V] { return container.NewFixedHash[K, V](maxKeys, hash) }
}

// HashString is a ready-made string hasher for FixedHashFactory. It reads
// a key a word at a time; its values are a table's business, not a format
// to store. It is container.HashString itself, which a table recognises
// and hashes under a seed of its own, so client keys cannot be chosen to
// collide; called directly it uses public secrets.
var HashString = container.HashString

// HashInt is a ready-made int hasher for FixedHashFactory. It returns k
// itself: the fixed-hash container spreads keys over its slots (Fibonacci
// hashing), so an int hasher needs no mixing of its own. It is
// container.HashInt itself, which the fixed-hash container recognises and
// probes without calling.
var HashInt = container.HashInt

// HaswellServer returns the paper's dual-socket Haswell topology preset.
func HaswellServer() *Machine { return topology.HaswellServer() }

// XeonPhi returns the paper's Xeon Phi co-processor topology preset.
func XeonPhi() *Machine { return topology.XeonPhi() }

// DetectMachine returns the detected host topology (with a flat fallback).
func DetectMachine() *Machine { return topology.Detect() }

// TuneRatio estimates the mapper-to-combiner ratio for a job by measuring
// the throughput of its map and combine functions on an input sample, as
// §III-B of the paper prescribes. Feed the result into Config.Ratio.
func TuneRatio[S any, K comparable, V, R any](spec *Spec[S, K, V, R], cfg Config) (int, error) {
	return core.TuneRatio(spec, cfg)
}

// TraceCollector records per-worker execution timelines; assign one to
// Config.Trace, run a job, then export with WriteChromeTrace (view at
// ui.perfetto.dev) or Summary. A worker's lane becomes readable when the
// worker exits, so the timeline is complete once the run returns.
type TraceCollector = obs.Recorder

// NewTrace returns a collector ready to assign to Config.Trace: a
// standalone timeline of worker lanes, with no job lifecycle above them.
func NewTrace() *TraceCollector { return obs.New("") }

// JobTrace is a scheduled job's trace — the same type as TraceCollector,
// with a lifecycle lane: the scheduler-side spans (queue wait, grant
// allocation) above the run's worker lanes, under one root span. Obtain it
// from JobHandle.Trace and render with WriteChromeTrace.
type JobTrace = obs.Recorder

// Telemetry is a handle on a run's always-on counter ledger: assign one to
// Config.Telemetry and the engines attach the run's ledger to it. It starts
// no goroutine and samples nothing; export the live books via
// WritePrometheus/NewTelemetryServer, or read the structured report from
// Result.Telemetry after the run. Exact per-worker busy time is the
// worker's lane in a trace (Config.Trace).
type Telemetry = telemetry.Telemetry

// TelemetryReport is the structured result of one instrumented run, read
// from its ledger when the run ends: per-worker counters, their totals and
// per-phase throughput. Dump with WriteJSON or Summary.
type TelemetryReport = telemetry.Report

// NewTelemetry returns a Telemetry, ready to assign to Config.Telemetry.
func NewTelemetry() *Telemetry { return telemetry.New() }

// TelemetryServer serves /metrics (Prometheus text format) and the
// net/http/pprof endpoints for a Telemetry.
type TelemetryServer = telemetry.Server

// NewTelemetryServer starts a TelemetryServer on addr (":0" picks a free
// port; read it back with Addr).
func NewTelemetryServer(t *Telemetry, addr string) (*TelemetryServer, error) {
	return telemetry.NewServer(t, addr)
}

// QueueStats aggregates the SPSC queue counters of one RAMR run — the queue
// section of the run's books, the same type a telemetry report's totals and
// rows carry; see Result.QueueStats and its String/FailedPushRate/
// ShortPollRate helpers.
type QueueStats = mr.QueueStats

// StealPolicy selects the map-phase task steering (StealChunked,
// StealOff); see Config.Steal.
type StealPolicy = mr.StealPolicy

// Steal policies, re-exported from the job model.
const (
	// StealChunked (the default) lets an idle mapper steal half the
	// remaining task batch from the nearest non-empty locality group.
	StealChunked = mr.StealChunked
	// StealOff restricts mappers to their own group's tasks — the static
	// steering baseline.
	StealOff = mr.StealOff
)

// StealStats aggregates the map phase's work-stealing counters by distance
// class — the steal section of the run's books, the same type a telemetry
// report's totals and rows carry; see Result.Steal and its
// StolenTasks/StealRate/Balanced helpers.
type StealStats = mr.StealStats

// TunerProfile is an offline-tuned static configuration produced by the
// ramrtune command's coordinate-descent search; load one from disk with
// LoadTunerProfile and apply it with Config.ApplyProfile as a warm start.
type TunerProfile = tuner.Profile

// LoadTunerProfile reads and validates a JSON profile written by ramrtune.
func LoadTunerProfile(path string) (*TunerProfile, error) {
	return tuner.LoadProfile(path)
}

// IterInfo summarizes an Iterate loop (iterations, convergence, phases).
type IterInfo = mr.IterInfo

// Iterate drives an iterative MapReduce algorithm: run executes one
// iteration, done updates the algorithm's state from the result and
// reports convergence. See the kmeans example.
func Iterate[K comparable, R any](
	maxIter int,
	run func(iter int) (*Result[K, R], error),
	done func(iter int, res *Result[K, R]) bool,
) (*Result[K, R], IterInfo, error) {
	return mr.Iterate(maxIter, run, done)
}

// ResultCache is a byte-bounded LRU over finished run results keyed by
// content digest — the memoization layer behind the job service's
// 200-from-cache responses, reusable by embedders that front the
// library with their own admission path.
type ResultCache = memo.Cache

// ResultCacheStats is a point-in-time snapshot of a ResultCache's
// hit/miss/coalesce/eviction counters and byte accounting.
type ResultCacheStats = memo.Stats

// NewResultCache returns a cache bounded to maxBytes of accounted
// result payload (0 selects the 32 MiB default, negative disables
// caching — every Get misses and every Put is dropped).
func NewResultCache(maxBytes int64) *ResultCache { return memo.NewCache(maxBytes) }

// RunContext is Run with cancellation: once ctx is cancelled, mappers stop
// taking tasks after the current one, the pipeline drains cleanly, and the
// context's error is returned.
func RunContext[S any, K comparable, V, R any](ctx context.Context, spec *Spec[S, K, V, R], cfg Config) (*Result[K, R], error) {
	return core.RunContext(ctx, spec, cfg)
}

// RunPhoenixContext is RunPhoenix with cancellation.
func RunPhoenixContext[S any, K comparable, V, R any](ctx context.Context, spec *Spec[S, K, V, R], cfg Config) (*Result[K, R], error) {
	return core.RunPhoenixContext(ctx, spec, cfg)
}
