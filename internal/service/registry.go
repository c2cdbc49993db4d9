package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"ramr/internal/container"
	"ramr/internal/mr"
	"ramr/internal/sched"
	"ramr/internal/synth"
	"ramr/internal/topology"
	"ramr/internal/workloads"
)

// JobRequest is the POST /jobs body. Everything except Workload is
// optional; zero values select the documented defaults.
type JobRequest struct {
	// Workload names the app: one of WC, HG, LR, KM, PCA, MM, SM (Table
	// I names, case-insensitive) or SYNTH for the §III-C synthetic job.
	Workload string `json:"workload"`
	// Platform/Class pick the Table I input column and flavor:
	// "hwl"/"phi" and "small"/"medium"/"large". Defaults: hwl, small.
	Platform string `json:"platform,omitempty"`
	Class    string `json:"class,omitempty"`
	// Container overrides the intermediate container: "fixedarray",
	// "fixedhash", "hash". Default: the app's stress configuration, or
	// for a stream, whose vocabulary is the client's, its default one.
	Container string `json:"container,omitempty"`
	// Engine is "ramr" (default) or "phoenix".
	Engine string `json:"engine,omitempty"`
	// Priority is "low", "normal" (default) or "high".
	Priority string `json:"priority,omitempty"`
	// MinCPUs/MaxCPUs bound the CPU grant; 0 means 1 / whole budget.
	MinCPUs int `json:"min_cpus,omitempty"`
	MaxCPUs int `json:"max_cpus,omitempty"`
	// Seed makes the generated input deterministic.
	Seed int64 `json:"seed,omitempty"`
	// Config overlays engine knobs on mr.DefaultConfig. Mappers and
	// Combiners, when set, override the grant-derived worker split; the
	// grant still bounds pinning and caps a fused pool (grantConfig).
	Config ConfigOverlay `json:"config,omitempty"`
	// Synth parameterizes the SYNTH workload; ignored otherwise.
	Synth SynthParams `json:"synth,omitempty"`
	// Stream, when present, opens a resident streaming session instead
	// of a one-shot batch run: input arrives via POST /jobs/{id}/chunks
	// and per-window results are served from GET /jobs/{id}/windows.
	// Streaming is supported for SYNTH and WC on the ramr engine.
	Stream *StreamRequest `json:"stream,omitempty"`
	// Shard, when present, restricts the run to one shard of the
	// deterministically generated input (splits with index % count ==
	// index) and exports the shard's key→value container in the result's
	// "partial" field for a cluster coordinator to merge. Sharding is
	// supported for apps with exact integer arithmetic: WC, HG, SYNTH.
	// Mutually exclusive with Stream.
	Shard *workloads.ShardSpec `json:"shard,omitempty"`
}

// resolveSynthParams overlays the request's synth parameters onto the
// Fig. 4 defaults, validating sizes, kernel kinds and the skew exponent.
func resolveSynthParams(sp SynthParams) (synth.Params, error) {
	p := synth.DefaultParams()
	if err := refuseNegative(
		intField{"synth.elements", sp.Elements}, intField{"synth.keys", sp.Keys},
		intField{"synth.map_intensity", sp.MapIntensity}, intField{"synth.combine_intensity", sp.CombineIntensity},
	); err != nil {
		return p, err
	}
	if sp.Elements > 0 {
		p.Elements = sp.Elements
	}
	if sp.Keys > maxSized {
		return p, fmt.Errorf("synth.keys %d is above the bound %d", sp.Keys, maxSized)
	}
	if sp.Keys > 0 {
		p.Keys = sp.Keys
	}
	if sp.MapKind != "" || sp.MapIntensity > 0 {
		k, err := synth.ParseKind(sp.MapKind)
		if err != nil {
			return p, err
		}
		p.MapKernel.Kind = k
		if sp.MapIntensity > 0 {
			p.MapKernel.Intensity = sp.MapIntensity
		}
	}
	if sp.CombineKind != "" || sp.CombineIntensity > 0 {
		k, err := synth.ParseKind(sp.CombineKind)
		if err != nil {
			return p, err
		}
		p.CombineKernel.Kind = k
		if sp.CombineIntensity > 0 {
			p.CombineKernel.Intensity = sp.CombineIntensity
		}
	}
	if sp.Skew != 0 {
		if sp.Skew <= 1 {
			return p, fmt.Errorf("synth.skew must be 0 (uniform) or > 1 (zipf exponent), got %g", sp.Skew)
		}
		p.Skew = sp.Skew
	}
	return p, nil
}

// intField is one integer request field under its JSON path.
type intField struct {
	name string
	v    int
}

// refuseNegative names the first field below 0. Every counted request
// field reads 0 as its default, and a negative one would quietly run as
// that default.
func refuseNegative(fields ...intField) error {
	for _, f := range fields {
		if f.v < 0 {
			return fmt.Errorf("%s must be >= 0 (0 keeps the default), got %d", f.name, f.v)
		}
	}
	return nil
}

// maxSized bounds the request fields that size an allocation up front — a
// ring's slots, a session's task channel, a SYNTH worker's key array — so a request cannot ask for more
// memory than the process has. It is a fixed ceiling far above any default,
// not a knob.
const maxSized = 1 << 20

// ConfigOverlay is the subset of mr.Config settable over the API.
type ConfigOverlay struct {
	Mappers       int    `json:"mappers,omitempty"`
	Combiners     int    `json:"combiners,omitempty"`
	Ratio         int    `json:"ratio,omitempty"`
	TaskSize      int    `json:"task_size,omitempty"`
	QueueCapacity int    `json:"queue_capacity,omitempty"`
	BatchSize     int    `json:"batch_size,omitempty"`
	EmitBatch     int    `json:"emit_batch,omitempty"`
	Pin           string `json:"pin,omitempty"`
	Steal         string `json:"steal,omitempty"`
}

// StreamRequest is the POST /jobs "stream" object: the window and
// backpressure spec of a resident streaming session (mr.StreamSpec over
// JSON). Time is logical: chunks carry event-time ticks (or are
// auto-assigned the next tick) and the watermark trails the highest
// tick by Lateness.
type StreamRequest struct {
	// Window is the window width in ticks (required, >= 1).
	Window int64 `json:"window"`
	// Slide is the window stride: 0 selects tumbling windows; a
	// divisor of Window selects sliding windows.
	Slide int64 `json:"slide,omitempty"`
	// Lateness is how many ticks of out-of-order input are admitted
	// before a window seals.
	Lateness int64 `json:"lateness,omitempty"`
	// MaxPending bounds appended-but-unmapped splits; chunks beyond it
	// draw 429 with a Retry-After hint. 0 selects the default (1024).
	MaxPending int `json:"max_pending,omitempty"`
}

// spec converts the request to the runtime's window spec.
func (sr *StreamRequest) spec() *mr.StreamSpec {
	if sr == nil {
		return nil
	}
	return &mr.StreamSpec{
		Window:     sr.Window,
		Slide:      sr.Slide,
		Lateness:   sr.Lateness,
		MaxPending: sr.MaxPending,
	}
}

// SynthParams parameterizes the synthetic workload (§III-C): kernel
// kinds are "cpu" or "memory".
type SynthParams struct {
	Elements         int    `json:"elements,omitempty"`
	Keys             int    `json:"keys,omitempty"`
	MapKind          string `json:"map_kind,omitempty"`
	MapIntensity     int    `json:"map_intensity,omitempty"`
	CombineKind      string `json:"combine_kind,omitempty"`
	CombineIntensity int    `json:"combine_intensity,omitempty"`
	// Skew, when > 1, is the zipf exponent shaping split sizes and the
	// key distribution (0 = uniform). Values in (0, 1] are rejected.
	Skew float64 `json:"skew,omitempty"`
}

// Plan is a resolved submission: everything admission decides from —
// the canonical content digest, the scheduling class, the base engine
// config — and the handful of generator parameters materialise needs to
// build the input later. Nothing in it scales with the input.
type Plan struct {
	// app is the canonical workload name (upper case).
	app    string
	engine workloads.Engine
	// priority and the CPU bounds are scheduling hints: they shape the
	// grant, not the result, and stay out of the digest.
	priority         sched.Priority
	minCPUs, maxCPUs int
	// cfg is the base engine config, before the grant overlay.
	cfg mr.Config
	// mappers/combiners, when > 0, override the grant-derived split.
	mappers, combiners int
	// digest is the canonical content digest (hex).
	digest string

	seed  int64
	shard *workloads.ShardSpec
	// Table I apps: generator parameters and container kind.
	params workloads.Params
	kind   container.Kind
	// SYNTH: the parameterization after defaulting.
	synth synth.Params
}

// Resolve validates req — everything a build could reject: workload,
// platform/class, container, engine, priority, CPU bounds that contradict
// each other, the config overlay, shard spec, SYNTH and stream parameters —
// applies defaults, assembles the base engine config (before the machine
// and the grant overlay applied at dispatch) and renders the request's
// canonical content digest: the full identity of the computation —
// workload name, the fully-resolved input parameters (Table I
// platform/class and container, or SYNTH params after defaulting), engine,
// seed and the whole config overlay. Scheduling hints
// (priority, CPU bounds) affect placement, not the computed result, so
// they are excluded: two requests with equal digests compute the same
// Result and the memo cache may serve one from the other. Defaulting
// happens before hashing, so an explicit default value and an omitted
// field produce the same digest.
//
// Resolve generates no input and reads nothing of the host: admission
// (draining, memo lookup, coalescing, queue bound) decides from the plan
// alone, only a job the scheduler granted CPUs to pays for materialise, and
// a cluster coordinator calls it to refuse what every worker would refuse.
func Resolve(req *JobRequest) (*Plan, error) {
	if err := refuseNegative(intField{"min_cpus", req.MinCPUs}, intField{"max_cpus", req.MaxCPUs}); err != nil {
		return nil, err
	}
	if req.MaxCPUs > 0 && req.MinCPUs > req.MaxCPUs {
		return nil, fmt.Errorf("min_cpus %d exceeds max_cpus %d", req.MinCPUs, req.MaxCPUs)
	}
	p := &Plan{
		seed:    req.Seed,
		minCPUs: req.MinCPUs, maxCPUs: req.MaxCPUs,
		mappers: req.Config.Mappers, combiners: req.Config.Combiners,
	}

	engine, err := workloads.ParseEngine(req.Engine)
	if err != nil {
		return nil, err
	}
	p.engine = engine
	prio, err := sched.ParsePriority(strings.ToLower(req.Priority))
	if err != nil {
		return nil, err
	}
	p.priority = prio

	p.app = strings.ToUpper(strings.TrimSpace(req.Workload))
	var inputKey string
	switch p.app {
	case "":
		return nil, fmt.Errorf("workload is required")
	case "SYNTH":
		sp, err := resolveSynthParams(req.Synth)
		if err != nil {
			return nil, err
		}
		p.synth = sp
		inputKey = fmt.Sprintf("synth=%d,%d,%d,%d,%d,%d,%g",
			sp.Elements, sp.Keys,
			int(sp.MapKernel.Kind), sp.MapKernel.Intensity,
			int(sp.CombineKernel.Kind), sp.CombineKernel.Intensity,
			sp.Skew)
	default:
		platform, err := workloads.ParsePlatform(req.Platform)
		if err != nil {
			return nil, err
		}
		class, err := workloads.ParseSizeClass(req.Class)
		if err != nil {
			return nil, err
		}
		in, err := workloads.Input(p.app, platform, class)
		if err != nil {
			return nil, err
		}
		p.params = in.Params
		// The fixed-size tables of Figs. 8b/9b are sized for a generated
		// vocabulary; a stream's is the client's text.
		p.kind = workloads.StressContainer(p.app)
		if req.Stream != nil {
			p.kind = workloads.DefaultContainer(p.app)
		}
		if req.Container != "" {
			if p.kind, err = container.ParseKind(req.Container); err != nil {
				return nil, err
			}
			// A WC stream's keys are client text: its vocabulary has no
			// bound, and the fixed-size table holds at most its declared
			// keys, so a session would fail at the first word past them in
			// a pane. The growing table has no such bound.
			if req.Stream != nil && p.app == "WC" && p.kind == container.KindFixedHash {
				return nil, fmt.Errorf("container %q holds at most %d distinct words, and a WC stream's vocabulary is unbounded: use the growing table, hash", req.Container, workloads.WCFixedKeys)
			}
		}
		inputKey = fmt.Sprintf("input=%d,%d|container=%d", int(platform), int(class), int(p.kind))
	}
	if req.Shard != nil {
		if err := req.Shard.Validate(); err != nil {
			return nil, fmt.Errorf("shard %s: %v", p.app, err)
		}
		if !workloads.Shardable(p.app) {
			return nil, fmt.Errorf("app %q is not shardable (want one of %v; float-valued apps merge only approximately)",
				p.app, workloads.ShardableApps())
		}
		sh := *req.Shard // materialise runs later: do not alias the caller's request
		p.shard = &sh
	}

	cfg := mr.DefaultConfig()
	ov := req.Config
	if err := refuseNegative(
		intField{"config.mappers", ov.Mappers}, intField{"config.combiners", ov.Combiners},
		intField{"config.ratio", ov.Ratio}, intField{"config.task_size", ov.TaskSize},
		intField{"config.queue_capacity", ov.QueueCapacity}, intField{"config.batch_size", ov.BatchSize},
		intField{"config.emit_batch", ov.EmitBatch},
	); err != nil {
		return nil, err
	}
	if ov.Ratio > 0 {
		cfg.Ratio = ov.Ratio
	}
	if ov.TaskSize > 0 {
		cfg.TaskSize = ov.TaskSize
	}
	if ov.QueueCapacity > maxSized {
		return nil, fmt.Errorf("config.queue_capacity %d is above the bound %d", ov.QueueCapacity, maxSized)
	}
	if ov.QueueCapacity > 0 {
		cfg.QueueCapacity = ov.QueueCapacity
	}
	if ov.BatchSize > 0 {
		cfg.BatchSize = ov.BatchSize
	}
	if ov.EmitBatch > 0 {
		cfg.EmitBatch = ov.EmitBatch
	}
	if ov.Pin != "" {
		pin, err := mr.ParsePinPolicy(ov.Pin)
		if err != nil {
			return nil, err
		}
		cfg.Pin = pin
	}
	if ov.Steal != "" {
		st, err := mr.ParseStealPolicy(ov.Steal)
		if err != nil {
			return nil, err
		}
		cfg.Steal = st
	}
	if req.Stream != nil {
		if req.Shard != nil {
			return nil, fmt.Errorf("streaming jobs cannot be sharded")
		}
		if streamSessions[p.app] == nil {
			return nil, fmt.Errorf("streaming is supported for the %v workloads only, not %s", streamApps(), p.app)
		}
		if p.synth.Skew > 1 {
			return nil, fmt.Errorf("synth.skew must be 0 (uniform) on a stream, got %g: the zipf tables need the whole input up front", p.synth.Skew)
		}
		if p.engine != workloads.EngineRAMR {
			return nil, fmt.Errorf("streaming runs on the ramr engine only")
		}
		if req.Stream.MaxPending > maxSized {
			return nil, fmt.Errorf("stream.max_pending %d is above the bound %d", req.Stream.MaxPending, maxSized)
		}
		spec := req.Stream.spec()
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		cfg.Stream = spec
	}
	p.cfg = cfg

	h := sha256.New()
	// "tuner=false" is a constant since the online tuner went: keeping it
	// keeps every digest, and so every memo key, what it was before.
	fmt.Fprintf(h, "app=%s|engine=%d|seed=%d|tuner=false|%s|cfg=%d,%d,%d,%d,%d,%d,%d,%d,%d",
		p.app, int(p.engine), req.Seed, inputKey,
		ov.Mappers, ov.Combiners, cfg.Ratio, cfg.TaskSize, cfg.QueueCapacity,
		cfg.BatchSize, cfg.EmitBatch, int(cfg.Pin), int(cfg.Steal))
	if cfg.Stream != nil {
		// The window spec is part of the computation's identity (the
		// same chunks under different windows yield different results).
		// Hash the resolved spec so explicit defaults and omitted
		// fields digest alike — not that it matters for caching:
		// streaming digests exist for identity/logging only, since
		// streaming submissions bypass the memo cache entirely.
		r := cfg.Stream.Resolved()
		fmt.Fprintf(h, "|stream=%d,%d,%d,%d", r.Window, r.Slide, r.Lateness, r.MaxPending)
	}
	if p.shard != nil {
		// A shard computes a strict subset of the full job's output, so
		// its digest must differ both from the unsharded request's and
		// from every other shard's — otherwise the memo cache would serve
		// one shard's partial for another. Including the spec here is
		// also what gives a re-dispatched shard (retry, reshard onto
		// another worker that already ran it) a shard-level memo hit.
		fmt.Fprintf(h, "|shard=%d/%d", p.shard.Index, p.shard.Count)
	}
	p.digest = hex.EncodeToString(h.Sum(nil))
	return p, nil
}

// resolve is Resolve for a run on machine m.
func resolve(req *JobRequest, m *topology.Machine) (*Plan, error) {
	p, err := Resolve(req)
	if err != nil {
		return nil, err
	}
	p.cfg.Machine = m
	return p, nil
}

// materialise generates the plan's input and binds it to a runnable job.
// It is the expensive half of a submission — a Table I corpus is
// megabytes — and runs as the first step of the scheduled Run closure:
// under the job's CPU grant, on width = len(grant) goroutines, and only for
// a job that actually executes. resolve already rejected everything the
// constructors reject, so an error here is a bug, reported as a failed job.
func (p *Plan) materialise(width int) (*workloads.Job, error) {
	if p.app == "SYNTH" {
		return synth.Build(p.synth, p.seed, p.shard, width)
	}
	return workloads.Build(p.app, p.params, p.kind, p.seed, p.shard, width)
}

// grantConfig overlays a CPU grant on the plan's base engine config; the
// request's explicit mapper/combiner counts, when set, override the
// grant-derived split. The grant still bounds pinning, and it caps the
// workers: unless the plan puts a combiner on an SMT sibling of its mappers,
// the job is one fused pool of at most len(grant) workers, so explicit
// counts never put more fused workers than CPUs on a grant.
func (p *Plan) grantConfig(grant []int) mr.Config {
	c := p.cfg
	c.ApplyGrant(grant)
	if p.mappers > 0 {
		c.Mappers = p.mappers
	}
	if p.combiners > 0 {
		c.Combiners = p.combiners
	}
	return c
}
