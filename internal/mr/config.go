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
	// Mappers is the number of map workers. With Combiners it sizes the
	// run's pool: the paper's pipeline when the pinning plan ships pairs
	// (core.Plan.ShipsPairs), else one fused pool of Mappers+Combiners
	// workers, capped at CPUGrant's size. Reduce and sort run as wide as
	// the pool.
	Mappers int
	// Combiners is the number of combine workers, in both engines: on a
	// fused pool each is one more worker that maps and folds. When 0, it
	// is derived as Mappers/Ratio.
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
	// published alone — the pre-batching behaviour, kept for ablation);
	// 0 selects DefaultEmitBatch. Like BatchSize, the engine clamps it
	// to the queue capacity.
	EmitBatch int
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
	// the grant). The run ships pairs through rings only when that plan puts
	// a combiner on an SMT sibling of its mappers (core.Plan.ShipsPairs);
	// otherwise it is one fused pool of at most len(CPUGrant) workers,
	// however many Mappers and Combiners ask for, and its reduce and sort
	// run no wider. The multi-job scheduler (internal/sched) hands each
	// admitted job a disjoint grant so concurrent runs never contend for the
	// same logical CPUs. Ids must be unique, non-negative, and valid for the
	// resolved Machine. Empty means the historical single-job behaviour: the
	// run owns the full machine and its fused pool has Mappers+Combiners
	// workers, however many CPUs that is per worker. The Phoenix++ baseline
	// engine does not pin, so it never ships, and sizes its pool the same
	// way.
	CPUGrant []int
	// Trace, when non-nil, records per-worker execution timelines
	// (task spans for mappers and fused workers, consume spans for
	// combiners) for Chrome-trace export. Tracing costs one slice
	// append per span on the hot path; each worker's lane becomes
	// readable when that worker exits.
	Trace *obs.Recorder
	// Telemetry, when non-nil, is handed the run's ledger: its books are
	// exported to Prometheus live and as a JSON report attached to
	// Result.Telemetry. The ledger itself is always on: every worker books
	// its counters on its own shard, with uncontended atomics at task ends
	// and consume rounds, never per pair and without allocating, whether or
	// not this is set. Setting it starts nothing.
	Telemetry *telemetry.Telemetry
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
	case c.Pin != PinRAMR && c.Pin != PinRoundRobin && c.Pin != PinNone:
		return fmt.Errorf("mr: unknown Pin policy %d", int(c.Pin))
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
	if err := c.Stream.Validate(); err != nil {
		return err
	}
	return nil
}

// SplitWorkers divides n CPUs between the two pools at a mapper-to-combiner
// ratio (§III-B): combiners get n/(ratio+1), the mappers the rest, and each
// pool at least one worker. A ratio below 1 counts as 1.
func SplitWorkers(n, ratio int) (mappers, combiners int) {
	combiners = max(n/(max(ratio, 1)+1), 1)
	return max(n-combiners, 1), combiners
}

// ApplyGrant configures the run for an externally granted CPU set: the
// grant becomes CPUGrant and the worker counts are resized so the whole
// pool fits on it (SplitWorkers at the configured Ratio). A one-CPU grant
// gets one mapper and one combiner, and the engine runs them as one fused
// worker: a plan on one CPU has no SMT sibling to ship pairs to, and a
// fused pool never has more workers than its grant has CPUs. An empty grant
// is a no-op.
func (c *Config) ApplyGrant(cpus []int) {
	if len(cpus) == 0 {
		return
	}
	c.CPUGrant = append([]int(nil), cpus...)
	c.Mappers, c.Combiners = SplitWorkers(len(cpus), c.Ratio)
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

// ValidateGrant checks CPUGrant against the resolved machine: every id must
// name one of its logical CPUs. Uniqueness and sign were already enforced by
// Validate; this is the machine-dependent half, checked once per run (or
// stream session) by every engine before any resource is allocated.
func (c Config) ValidateGrant(machine *topology.Machine) error {
	n := machine.NumCPUs()
	for _, cpu := range c.CPUGrant {
		if cpu >= n {
			return fmt.Errorf("mr: CPUGrant cpu %d out of range for %s (%d logical CPUs)", cpu, machine.Name, n)
		}
	}
	return nil
}

// ResolveMachine returns the configured machine or detects the host.
func (c Config) ResolveMachine() *topology.Machine {
	if c.Machine != nil {
		return c.Machine
	}
	return topology.Detect()
}
