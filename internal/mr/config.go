package mr

import (
	"fmt"
	"os"
	"runtime"
	"strconv"

	"ramr/internal/obs"
	"ramr/internal/spsc"
	"ramr/internal/telemetry"
	"ramr/internal/topology"
	"ramr/internal/tuner"
)

// PinPolicy selects how worker threads are placed on logical CPUs,
// matching the three policies compared in §IV-B.
type PinPolicy int

const (
	// PinRAMR is the contention-aware policy: each combiner is pinned
	// adjacent to its assigned mappers (same physical core / closest
	// shared cache), using the topology's compact thread order.
	PinRAMR PinPolicy = iota
	// PinRoundRobin pins threads to cores round-robin across sockets
	// without considering their role — the paper's "RR" baseline.
	PinRoundRobin
	// PinNone leaves placement to the OS scheduler (thread migrations
	// allowed) — the paper's "Linux scheduler" baseline.
	PinNone
)

// String names the policy as in the paper's figures.
func (p PinPolicy) String() string {
	switch p {
	case PinRAMR:
		return "ramr"
	case PinRoundRobin:
		return "round-robin"
	case PinNone:
		return "os-default"
	default:
		return fmt.Sprintf("PinPolicy(%d)", int(p))
	}
}

// ParsePinPolicy maps a string (as accepted in RAMR_PIN) to a policy.
func ParsePinPolicy(s string) (PinPolicy, error) {
	switch s {
	case "ramr":
		return PinRAMR, nil
	case "rr", "round-robin":
		return PinRoundRobin, nil
	case "none", "os", "os-default":
		return PinNone, nil
	default:
		return 0, fmt.Errorf("mr: unknown pin policy %q (want ramr|rr|none)", s)
	}
}

// Config carries every tuning knob of the runtimes. The zero value is not
// runnable; start from DefaultConfig (or FromEnv) and override fields.
type Config struct {
	// Mappers is the number of map workers (also the reduce/merge
	// worker count, as both pools reuse the general-purpose pool).
	Mappers int
	// Combiners is the number of combine workers (RAMR only). When 0,
	// it is derived as Mappers/Ratio.
	Combiners int
	// Ratio is the mapper-to-combiner ratio used when Combiners is 0.
	// §III-B: "according to the ratio of mapper-to-combiner threads, a
	// set of mapper queues is assigned to each combiner".
	Ratio int
	// TaskSize is the number of input splits grouped into one map task.
	TaskSize int
	// QueueCapacity is the per-mapper SPSC ring capacity (the paper's
	// §III-A tuned 5000 for its C++ ring; the default here is measured,
	// see spsc.DefaultCapacity).
	QueueCapacity int
	// BatchSize is the combiner's batched-consume block size (§IV-C).
	BatchSize int
	// EmitBatch is the mapper-side emit slab size: a mapper buffers this
	// many emitted pairs locally and publishes them with one PushBatch,
	// so the queue's shared tail index is touched once per slab instead
	// of once per pair. 1 disables producer-side batching (each emit is
	// a single Push — the pre-batching behaviour, kept for ablation);
	// 0 selects DefaultEmitBatch. Like BatchSize, the engine clamps it
	// to the queue capacity.
	EmitBatch int
	// Wait selects the producer's full-queue policy.
	Wait spsc.WaitPolicy
	// Pin selects the thread placement policy.
	Pin PinPolicy
	// Steal selects the map-phase task steering policy (RAMR only). The
	// zero value StealChunked enables distance-ordered chunked work
	// stealing; StealOff is the static strictly-local baseline.
	Steal StealPolicy
	// Machine describes the topology used for pinning decisions. When
	// nil, the host is detected at run time.
	Machine *topology.Machine
	// CPUGrant, when non-empty, restricts the RAMR run to this set of
	// logical CPU ids instead of assuming it owns the whole machine: the
	// pinning plan is laid out over exactly these CPUs (in the machine's
	// compact order, so the contention-aware placement stays valid inside
	// the grant) and the elastic combiner pool treats the grant as a hard
	// ceiling on its worker count. The multi-job scheduler
	// (internal/sched) hands each admitted job a disjoint grant so
	// concurrent runs never contend for the same logical CPUs. Ids must
	// be unique, non-negative, and valid for the resolved Machine. Empty
	// means the historical single-job behaviour: the full machine. The
	// Phoenix++ baseline engine does not pin and ignores the field beyond
	// validation.
	CPUGrant []int
	// Trace, when non-nil, records per-worker execution timelines
	// (task spans for mappers and fused workers, consume spans for
	// combiners) for Chrome-trace export. Tracing costs one slice
	// append per span on the hot path; each worker's lane becomes
	// readable when that worker exits.
	Trace *obs.Recorder
	// Telemetry, when non-nil, enables the live observability layer:
	// per-worker counters, a background sampler recording every SPSC
	// ring's occupancy and each worker's state, and Prometheus/JSON
	// export. The engines register their queues and workers at run start
	// and attach the resulting report to Result.Telemetry. Like Hooks,
	// the field is nil-checked once per worker outside the hot loops;
	// with it nil the engines pay nothing, with it set the hot path pays
	// only local (per-worker, uncontended) atomic increments amortized
	// over slabs, batches and tasks.
	Telemetry *telemetry.Telemetry
	// Tuner, when non-nil, enables the adaptive runtime (RAMR engine
	// only): the combiner pool becomes elastic and a deterministic
	// feedback controller adjusts the pool size and the consume batch
	// size online from telemetry deltas, one decision per epoch. The decision log is attached to
	// Result.TunerReport. nil keeps today's fully static behaviour; the
	// engine then pays only nil checks. When Telemetry is nil the engine
	// runs a private sampler for the controller's clock and signals
	// without attaching a report.
	Tuner *tuner.Config
	// Hooks is the test-only fault-injection surface (see Hooks). It
	// must be nil outside tests; engines never touch a nil Hooks on the
	// hot path.
	Hooks *Hooks
	// Stream, when non-nil, marks the configuration as a resident
	// streaming pipeline (internal/stream): input arrives as chunks
	// over time and results are emitted per sealed window instead of
	// once at the end. The one-shot batch engines reject a Config with
	// Stream set — nil keeps batch behaviour bit-for-bit.
	Stream *StreamSpec
}

// Default knob values; the paper's tuned settings where it states them.
const (
	DefaultRatio     = 1
	DefaultTaskSize  = 4
	DefaultBatchSize = 1000
	DefaultEmitBatch = 64
)

// DefaultConfig returns a runnable configuration for the current host:
// one mapper per physical core's worth of parallelism split between the
// two pools, the ring geometry EXPERIMENTS.md's sweep picked ("Handoff
// waits and ring geometry on Go"), RAMR pinning.
func DefaultConfig() Config {
	n := runtime.GOMAXPROCS(0)
	mappers := n / 2
	if mappers < 1 {
		mappers = 1
	}
	return Config{
		Mappers:       mappers,
		Ratio:         DefaultRatio,
		TaskSize:      DefaultTaskSize,
		QueueCapacity: spsc.DefaultCapacity,
		BatchSize:     DefaultBatchSize,
		EmitBatch:     DefaultEmitBatch,
		Wait:          spsc.WaitSleep,
		Pin:           PinRAMR,
	}
}

// Environment variable names; §III: "the task size can be finely tuned via
// a set of environmental variables" — we extend the same mechanism to
// every knob.
const (
	EnvMappers   = "RAMR_MAPPERS"
	EnvCombiners = "RAMR_COMBINERS"
	EnvRatio     = "RAMR_RATIO"
	EnvTaskSize  = "RAMR_TASK_SIZE"
	EnvQueueCap  = "RAMR_QUEUE_CAP"
	EnvBatchSize = "RAMR_BATCH_SIZE"
	EnvEmitBatch = "RAMR_EMIT_BATCH"
	EnvPin       = "RAMR_PIN"
	EnvWait      = "RAMR_WAIT"
	EnvSteal     = "RAMR_STEAL"
)

// FromEnv returns DefaultConfig overridden by any RAMR_* environment
// variables that are set. Malformed values are reported, not ignored.
func FromEnv() (Config, error) {
	c := DefaultConfig()
	for _, it := range []struct {
		env string
		dst *int
		min int
	}{
		{EnvMappers, &c.Mappers, 1},
		{EnvCombiners, &c.Combiners, 1},
		{EnvRatio, &c.Ratio, 1},
		{EnvTaskSize, &c.TaskSize, 1},
		{EnvQueueCap, &c.QueueCapacity, 1},
		{EnvBatchSize, &c.BatchSize, 1},
		{EnvEmitBatch, &c.EmitBatch, 1},
	} {
		s, ok := os.LookupEnv(it.env)
		if !ok {
			continue
		}
		v, err := strconv.Atoi(s)
		if err != nil || v < it.min {
			return Config{}, fmt.Errorf("mr: %s=%q: want integer >= %d", it.env, s, it.min)
		}
		*it.dst = v
	}
	if s, ok := os.LookupEnv(EnvPin); ok {
		p, err := ParsePinPolicy(s)
		if err != nil {
			return Config{}, err
		}
		c.Pin = p
	}
	if s, ok := os.LookupEnv(EnvSteal); ok {
		p, err := ParseStealPolicy(s)
		if err != nil {
			return Config{}, err
		}
		c.Steal = p
	}
	if s, ok := os.LookupEnv(EnvWait); ok {
		switch s {
		case "sleep":
			c.Wait = spsc.WaitSleep
		case "busy", "busy-wait":
			c.Wait = spsc.WaitBusy
		default:
			return Config{}, fmt.Errorf("mr: %s=%q: want sleep|busy", EnvWait, s)
		}
	}
	return c, nil
}

// NumCombiners resolves the effective combiner count: the explicit value
// when set, else ceil(Mappers/Ratio), never below 1 or above Mappers.
func (c Config) NumCombiners() int {
	if c.Combiners > 0 {
		if c.Combiners > c.Mappers {
			return c.Mappers
		}
		return c.Combiners
	}
	r := c.Ratio
	if r < 1 {
		r = 1
	}
	n := (c.Mappers + r - 1) / r
	if n < 1 {
		n = 1
	}
	return n
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.Mappers < 1:
		return fmt.Errorf("mr: Mappers must be >= 1, got %d", c.Mappers)
	case c.Combiners < 0:
		return fmt.Errorf("mr: Combiners must be >= 0, got %d", c.Combiners)
	case c.Combiners == 0 && c.Ratio < 1:
		return fmt.Errorf("mr: Ratio must be >= 1 when Combiners is derived, got %d", c.Ratio)
	case c.TaskSize < 1:
		return fmt.Errorf("mr: TaskSize must be >= 1, got %d", c.TaskSize)
	case c.QueueCapacity < 1:
		return fmt.Errorf("mr: QueueCapacity must be >= 1, got %d", c.QueueCapacity)
	case c.BatchSize < 1:
		return fmt.Errorf("mr: BatchSize must be >= 1, got %d", c.BatchSize)
	case c.EmitBatch < 0:
		return fmt.Errorf("mr: EmitBatch must be >= 0 (0 selects the default), got %d", c.EmitBatch)
	case c.Steal != StealChunked && c.Steal != StealOff:
		return fmt.Errorf("mr: unknown Steal policy %d", int(c.Steal))
	}
	seen := make(map[int]bool, len(c.CPUGrant))
	for _, cpu := range c.CPUGrant {
		if cpu < 0 {
			return fmt.Errorf("mr: CPUGrant contains negative cpu id %d", cpu)
		}
		if seen[cpu] {
			return fmt.Errorf("mr: CPUGrant contains duplicate cpu id %d", cpu)
		}
		seen[cpu] = true
	}
	if err := c.Tuner.Validate(); err != nil {
		return err
	}
	if err := c.Stream.Validate(); err != nil {
		return err
	}
	return nil
}

// ApplyGrant configures the run for an externally granted CPU set: the
// grant becomes CPUGrant and the worker counts are resized so the whole
// pool fits on it — combiners get roughly 1/(Ratio+1) of the grant (the
// mapper-to-combiner ratio of §III-B applied to a partial machine), the
// mappers the rest. A one-CPU grant still runs the minimal 1+1 pipeline:
// one mapper and one combiner sharing the CPU by taking turns on it — the
// engine conserves work (an idle combiner maps, a back-pressured mapper
// folds) only on a grant with a CPU for every worker, so here whichever of
// the two has nothing to do parks and the other gets the CPU. An empty
// grant is a no-op.
func (c *Config) ApplyGrant(cpus []int) {
	n := len(cpus)
	if n == 0 {
		return
	}
	c.CPUGrant = append([]int(nil), cpus...)
	r := c.Ratio
	if r < 1 {
		r = 1
	}
	combiners := n / (r + 1)
	if combiners < 1 {
		combiners = 1
	}
	mappers := n - combiners
	if mappers < 1 {
		mappers = 1
	}
	c.Mappers = mappers
	c.Combiners = combiners
}

// ApplyProfile overwrites the searchable knobs (ratio, queue capacity,
// batch size) with a saved offline-search profile, the warm start
// ramrtune emits. The explicit Combiners override is cleared so the
// profile's ratio takes effect. The rest of the Config is untouched.
func (c *Config) ApplyProfile(p *tuner.Profile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	c.Ratio = p.Best.Ratio
	c.Combiners = 0
	c.QueueCapacity = p.Best.QueueCapacity
	c.BatchSize = p.Best.BatchSize
	return nil
}

// ResolveMachine returns the configured machine or detects the host.
func (c Config) ResolveMachine() *topology.Machine {
	if c.Machine != nil {
		return c.Machine
	}
	return topology.Detect()
}
