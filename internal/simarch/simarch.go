// Package simarch estimates the run time of the RAMR and Phoenix++
// execution strategies on a modeled machine — the substitute for the
// paper's two physical testbeds (see DESIGN.md's substitution table).
//
// The native engines (both run by internal/core) really run, but
// only on whatever host executes the tests; the paper's platform-dependent
// results (a 56-thread NUMA Haswell, a 228-thread Xeon Phi) cannot be
// measured here. This package therefore models the map-combine phase as a
// pipeline throughput problem on the exact topologies of §IV-A:
//
//   - each phase has a per-element cycle cost and a memory-stall fraction,
//     measured by the perfmodel trace model;
//   - SMT siblings sharing a physical core contend: two compute-bound
//     threads steal issue slots from each other, a compute-bound and a
//     memory-bound thread overlap — the complementarity the paper's
//     pinning exploits;
//   - every queue element crosses from its mapper's CPU to its combiner's
//     CPU at the latency of their closest shared cache level (from the
//     pinning plan), control-variable synchronization amortized over the
//     consume batch;
//   - batches that outgrow the shared cache level spill outward, which is
//     what bends the Fig. 7 curves back up.
//
// All outputs are deterministic functions of (workload, machine, config):
// the same inputs always reproduce the same figure.
package simarch

import (
	"fmt"
	"math"

	"ramr/internal/container"
	"ramr/internal/core"
	"ramr/internal/mr"
	"ramr/internal/perfmodel"
	"ramr/internal/topology"
)

// Workload is the per-element cost profile of one job's map-combine phase.
// It carries both execution disciplines' costs (see perfmodel.JobCosts):
// the fused costs price a Phoenix++ worker, the split costs a decoupled
// RAMR mapper or combiner whose caches hold only its own phase's working
// set.
type Workload struct {
	// Name labels the workload in reports.
	Name string
	// Elements is the number of intermediate pairs flowing through the
	// pipeline.
	Elements int
	// ElemBytes is the size of one queued pair.
	ElemBytes int
	// Map and Combine are the decoupled (RAMR) per-element phase costs.
	Map, Combine perfmodel.PhaseCost
	// FusedMap and FusedCombine are the fused (Phoenix++) costs; when
	// zero they default to Map/Combine.
	FusedMap, FusedCombine perfmodel.PhaseCost
}

// fused returns the Phoenix++ cost pair, defaulting to the split costs.
func (w Workload) fused() (perfmodel.PhaseCost, perfmodel.PhaseCost) {
	fm, fc := w.FusedMap, w.FusedCombine
	if fm.CyclesPerElem == 0 {
		fm = w.Map
	}
	if fc.CyclesPerElem == 0 {
		fc = w.Combine
	}
	return fm, fc
}

// Config selects the runtime configuration to model.
type Config struct {
	// Mappers and Combiners size the two pools (Phoenix++ fuses both
	// into Mappers+Combiners general workers).
	Mappers, Combiners int
	// Pin is the placement policy.
	Pin mr.PinPolicy
	// BatchSize is the combiner's consume block.
	BatchSize int
	// QueueCap is the SPSC ring capacity.
	QueueCap int
}

// Estimate is a modeled map-combine phase execution time.
type Estimate struct {
	// Cycles is the modeled duration of the map-combine phase.
	Cycles float64
	// MapBound reports whether the pipeline was limited by the mappers
	// (true) or the combiners (false).
	MapBound bool
	// TransferCycles is the average per-element queue transfer cost
	// (diagnostic).
	TransferCycles float64
}

// thread is one modeled worker: its phase costs and placement.
type thread struct {
	cpu      int // logical CPU, -1 = unpinned
	compFrac float64
	memFrac  float64
}

// migratePenalty inflates every cost under the OS scheduler, modeling
// thread migrations and cold caches after each move.
const migratePenalty = 1.08

// controlSyncLines is how many cache-line transfers one batch handoff
// costs for the head/tail control variables.
const controlSyncLines = 2.0

// queueOverheads are the placement-independent bookkeeping costs of the
// SPSC queue. The per-consume-call cost (function call, empty checks,
// atomic index loads) is paid once per ConsumeBatch and amortized over the
// batch — the dominant term the paper's "batched reads" optimization
// removes, and far more expensive on the in-order, narrow Xeon Phi core
// (which cannot hide the branches and atomic loads behind other work):
// that asymmetry is why Fig. 6's batching speedups reach 11.4x on the Phi
// against 3.1x on Haswell.
type queueOverheads struct {
	push    float64 // per element, producer side
	pop     float64 // per element, consumer side
	popCall float64 // per consume call, amortized over the batch
}

func overheadsFor(m *topology.Machine) queueOverheads {
	if m.Name == "xeon-phi" {
		return queueOverheads{push: 5, pop: 4, popCall: 120}
	}
	return queueOverheads{push: 5, pop: 4, popCall: 20}
}

// mlpParams describes how much memory-level parallelism each execution
// discipline extracts on a machine. perfmodel reports *serialized* stall
// costs; how much of a stall actually overlaps with other work depends on
// who executes it:
//
//   - a dedicated mapper's input misses overlap across independent
//     elements up to the out-of-order window (none on the in-order Phi
//     beyond the prefetcher, which perfmodel already credits);
//   - a *batched* combiner walks a block of independent container
//     updates, so its misses pipeline up to the hardware limit — but only
//     when the batch provides that many independent accesses. This is the
//     microarchitectural content of the paper's "batched reads"
//     optimization and the reason Fig. 6's gains are so much larger on
//     the in-order Phi (11.4x) than on Haswell (3.1x);
//   - a fused Phoenix++ worker interleaves one container update with one
//     map element, so each combine miss can only overlap the OOO window's
//     worth of map work — and nothing at all on an in-order core.
type mlpParams struct {
	mapMLP          float64 // dedicated mapper
	fusedMapMLP     float64 // fused worker's map portion (shared OOO window)
	fusedCombineMLP float64 // fused worker's combine portion
	combinerMaxMLP  float64 // batched combiner ceiling
}

func mlpFor(m *topology.Machine) mlpParams {
	if m.Name == "xeon-phi" {
		return mlpParams{mapMLP: 1.2, fusedMapMLP: 1, fusedCombineMLP: 1, combinerMaxMLP: 6}
	}
	return mlpParams{mapMLP: 4, fusedMapMLP: 2, fusedCombineMLP: 2, combinerMaxMLP: 8}
}

// combinerMLP is the batched combiner's effective MLP: one independent
// access per batched element, up to the machine ceiling.
func (p mlpParams) combinerMLP(batch int) float64 {
	eff := float64(batch)
	if eff < 1 {
		eff = 1
	}
	if eff > p.combinerMaxMLP {
		eff = p.combinerMaxMLP
	}
	return eff
}

// effCost divides the stalled share of a phase cost by the achievable
// MLP, leaving the compute share untouched.
func effCost(c perfmodel.PhaseCost, mlp float64) float64 {
	if mlp < 1 {
		mlp = 1
	}
	stall := c.CyclesPerElem * c.MemFrac
	return c.CyclesPerElem - stall + stall/mlp
}

// smtSpeeds returns the per-thread speed factors for threads co-resident
// on one physical core. The pairwise contention model:
//
//	contention(i,j) = 0.75*min(comp_i, comp_j) + 0.35*min(mem_i, mem_j)
//	speed_i = scale / (1 + sum_j contention(i,j))
//
// Two compute-bound siblings each run at ~0.57 (combined 1.14 — the usual
// modest SMT gain); a compute-bound thread next to a memory-bound one
// keeps ~0.79 (combined ~1.6 — the complementary-phases win of §III-B).
// On the in-order Xeon Phi a single thread can only issue every other
// cycle, so one resident runs at 0.5 and multithreading is required to
// fill the core, as the paper's platform description notes.
func smtSpeeds(m *topology.Machine, residents []thread) []float64 {
	out := make([]float64, len(residents))
	phi := m.Name == "xeon-phi"
	for i, ti := range residents {
		denom := 1.0
		for j, tj := range residents {
			if i == j {
				continue
			}
			denom += 0.75*math.Min(ti.compFrac, tj.compFrac) + 0.35*math.Min(ti.memFrac, tj.memFrac)
		}
		s := 1.0 / denom
		if phi && len(residents) == 1 {
			s = 0.5 // in-order KNC: one context cannot issue back-to-back
		}
		out[i] = s
	}
	return out
}

// batchTransferLatency returns the per-cache-line producer-to-consumer
// latency given the pinning distance and the batch footprint: while the
// batch fits in half of the threads' closest shared cache, lines move at
// that cache's latency; beyond it they spill to the next outer level.
func batchTransferLatency(m *topology.Machine, mapperCPU, combinerCPU, batch, elemBytes int) float64 {
	lvl := 0
	if mapperCPU >= 0 && combinerCPU >= 0 {
		lvl = m.SharedCacheLevel(mapperCPU, combinerCPU)
	} else {
		// Unpinned: on average threads land on distinct cores of the
		// same socket, communicating through the outermost level.
		lvl = outermostLevel(m)
	}
	footprint := batch * elemBytes
	for {
		c, ok := m.Cache(lvl)
		if !ok {
			break
		}
		share := perThreadShare(m, c)
		if footprint <= share/2 {
			lat := float64(c.LatencyCycles)
			if mapperCPU >= 0 && combinerCPU >= 0 && m.Distance(mapperCPU, combinerCPU) == 3 {
				lat += float64(m.CrossSocketPenaltyCycles)
			}
			return lat
		}
		lvl = nextOuterLevel(m, lvl)
		if lvl == 0 {
			break
		}
	}
	lat := float64(m.MemLatencyCycles)
	if mapperCPU >= 0 && combinerCPU >= 0 && m.Distance(mapperCPU, combinerCPU) == 3 {
		lat += float64(m.CrossSocketPenaltyCycles)
	}
	return lat
}

// perThreadShare is a cache level's capacity divided by its sharers.
func perThreadShare(m *topology.Machine, c topology.CacheLevel) int {
	switch c.Scope {
	case topology.ScopePerCore:
		return c.SizeBytes / m.ThreadsPerCore
	case topology.ScopePerSocket:
		return c.SizeBytes / (m.ThreadsPerCore * m.CoresPerSocket)
	case topology.ScopeGlobal:
		return c.SizeBytes / m.NumCPUs()
	default:
		return c.SizeBytes
	}
}

func outermostLevel(m *topology.Machine) int {
	lvl := 0
	for _, c := range m.Caches {
		if c.Level > lvl {
			lvl = c.Level
		}
	}
	return lvl
}

func nextOuterLevel(m *topology.Machine, lvl int) int {
	best := 0
	for _, c := range m.Caches {
		if c.Level > lvl && (best == 0 || c.Level < best) {
			best = c.Level
		}
	}
	return best
}

// SimulateRAMR models the decoupled pipeline's map-combine phase.
func SimulateRAMR(m *topology.Machine, w Workload, cfg Config) (Estimate, error) {
	if err := validate(m, w, cfg); err != nil {
		return Estimate{}, err
	}
	mappers, combiners := cfg.Mappers, cfg.Combiners
	plan := core.BuildPlan(m, mappers, combiners, cfg.Pin)
	assign := core.QueueAssignment(mappers, combiners)
	batch := cfg.BatchSize
	if batch < 1 {
		batch = 1
	}
	if cfg.QueueCap > 0 && batch > cfg.QueueCap {
		batch = cfg.QueueCap
	}

	// Build the thread population and per-core residency.
	threads := make([]thread, 0, mappers+combiners)
	for i := 0; i < mappers; i++ {
		threads = append(threads, thread{
			cpu:      plan.MapperCPU[i],
			compFrac: 1 - w.Map.MemFrac,
			memFrac:  w.Map.MemFrac,
		})
	}
	for j := 0; j < combiners; j++ {
		threads = append(threads, thread{
			cpu:      plan.CombinerCPU[j],
			compFrac: 1 - w.Combine.MemFrac,
			memFrac:  w.Combine.MemFrac,
		})
	}
	speeds := placementSpeeds(m, threads)

	penalty := 1.0
	if cfg.Pin == mr.PinNone {
		penalty = migratePenalty
	}

	linesPerElem := float64(w.ElemBytes) / 64.0
	var totalThroughput, transferSum float64
	for j, rng := range assign {
		ccpu := plan.CombinerCPU[j]
		var mapRate float64
		var groupTransfer float64
		nq := rng[1] - rng[0]
		if nq == 0 {
			continue
		}
		mlp := mlpFor(m)
		ovh := overheadsFor(m)
		mapEff := effCost(w.Map, mlp.mapMLP)
		combEff := effCost(w.Combine, mlp.combinerMLP(batch))
		for i := rng[0]; i < rng[1]; i++ {
			mcpu := plan.MapperCPU[i]
			lat := batchTransferLatency(m, mcpu, ccpu, batch, w.ElemBytes)
			groupTransfer += lat
			// Producer cost: map work + push bookkeeping; the ring
			// write lands in the producer's own cache.
			pushCost := (mapEff + ovh.push) * penalty
			mapRate += speeds[i] / pushCost
		}
		avgLat := groupTransfer / float64(nq)
		// Consumer cost per element: combine work, pop bookkeeping
		// (per-call cost amortized over the batch), the data lines
		// crossing the shared cache (pipelined like the batch's other
		// independent accesses), and the control variables
		// synchronized once per batch.
		xfer := avgLat*linesPerElem/mlp.combinerMLP(batch) + avgLat*controlSyncLines/float64(batch)
		popCost := (combEff + ovh.pop + ovh.popCall/float64(batch) + xfer) * penalty
		combRate := speeds[mappers+j] / popCost
		transferSum += xfer

		totalThroughput += math.Min(mapRate, combRate)
	}
	if totalThroughput <= 0 {
		return Estimate{}, fmt.Errorf("simarch: zero pipeline throughput")
	}

	cycles := float64(w.Elements) / totalThroughput
	// Combiners idle until their queues hold one full batch, and drain
	// the final partial batch after the mappers finish.
	perMapper := float64(w.Elements) / float64(mappers)
	fill := math.Min(float64(batch), perMapper) * (effCost(w.Map, mlpFor(m).mapMLP) + overheadsFor(m).push)
	cycles += fill

	// Determine the binding side for diagnostics.
	var mapSide, combSide float64
	mlp := mlpFor(m)
	ovh := overheadsFor(m)
	for j, rng := range assign {
		for i := rng[0]; i < rng[1]; i++ {
			mapSide += speeds[i] / (effCost(w.Map, mlp.mapMLP) + ovh.push)
		}
		combSide += speeds[mappers+j] / (effCost(w.Combine, mlp.combinerMLP(batch)) + ovh.pop)
	}
	return Estimate{
		Cycles:         cycles,
		MapBound:       mapSide <= combSide,
		TransferCycles: transferSum / float64(len(assign)),
	}, nil
}

// SimulatePhoenix models the fused baseline: Mappers+Combiners identical
// general-purpose workers, each paying map+combine per element with no
// queue costs, placed compactly (Phoenix++ also pins its worker pool).
func SimulatePhoenix(m *topology.Machine, w Workload, cfg Config) (Estimate, error) {
	if err := validate(m, w, cfg); err != nil {
		return Estimate{}, err
	}
	workers := cfg.Mappers + cfg.Combiners
	order := m.CompactOrder()
	fm, fc := w.fused()
	mlp := mlpFor(m)
	perElem := effCost(fm, mlp.fusedMapMLP) + effCost(fc, mlp.fusedCombineMLP)
	blendMem := (fm.CyclesPerElem*fm.MemFrac + fc.CyclesPerElem*fc.MemFrac) /
		(fm.CyclesPerElem + fc.CyclesPerElem)

	threads := make([]thread, workers)
	for i := range threads {
		threads[i] = thread{
			cpu:      order[i%len(order)],
			compFrac: 1 - blendMem,
			memFrac:  blendMem,
		}
	}
	speeds := placementSpeeds(m, threads)
	var rate float64
	for i := range threads {
		rate += speeds[i] / perElem
	}
	if rate <= 0 {
		return Estimate{}, fmt.Errorf("simarch: zero worker throughput")
	}
	return Estimate{Cycles: float64(w.Elements) / rate, MapBound: true}, nil
}

// placementSpeeds groups threads by physical core and applies the SMT
// contention model. Unpinned threads are assumed spread one per core until
// cores are exhausted, then stacked round-robin.
func placementSpeeds(m *topology.Machine, threads []thread) []float64 {
	cpus := m.CPUs()
	byCore := make(map[int][]int) // core -> thread indices
	unpinned := []int{}
	for idx, t := range threads {
		if t.cpu >= 0 && t.cpu < len(cpus) {
			core := cpus[t.cpu].Core
			byCore[core] = append(byCore[core], idx)
		} else {
			unpinned = append(unpinned, idx)
		}
	}
	// Spread unpinned threads over cores round-robin (the OS balancer's
	// steady state).
	ncores := m.NumCores()
	for k, idx := range unpinned {
		core := k % ncores
		byCore[core] = append(byCore[core], idx)
	}
	out := make([]float64, len(threads))
	for _, idxs := range byCore {
		residents := make([]thread, len(idxs))
		for i, idx := range idxs {
			residents[i] = threads[idx]
		}
		sp := smtSpeeds(m, residents)
		for i, idx := range idxs {
			out[idx] = sp[i]
		}
	}
	return out
}

func validate(m *topology.Machine, w Workload, cfg Config) error {
	if m == nil {
		return fmt.Errorf("simarch: nil machine")
	}
	if w.Elements <= 0 || w.ElemBytes <= 0 {
		return fmt.Errorf("simarch: workload %q has no elements", w.Name)
	}
	if w.Map.CyclesPerElem <= 0 || w.Combine.CyclesPerElem <= 0 {
		return fmt.Errorf("simarch: workload %q has non-positive phase costs", w.Name)
	}
	if cfg.Mappers < 1 || cfg.Combiners < 1 {
		return fmt.Errorf("simarch: need at least one mapper and one combiner")
	}
	return nil
}

// WorkloadFor derives a Workload from the perfmodel traces of one app and
// container configuration on machine m, including both the fused and the
// decoupled cost measurements.
func WorkloadFor(m *topology.Machine, app string, kind container.Kind) (Workload, error) {
	jc, err := perfmodel.JobCostsFor(m, app, kind)
	if err != nil {
		return Workload{}, err
	}
	return Workload{
		Name: fmt.Sprintf("%s/%s", app, kind),
		// The trace models a sample of the Table I input; the simulated
		// run processes the full input, so the steady-state pipeline
		// dwarfs the fill/drain transient exactly as it does on the
		// real platforms.
		Elements:     jc.Trace.Elements * 64,
		ElemBytes:    jc.Trace.ElemBytes,
		Map:          jc.SplitMap,
		Combine:      jc.SplitCombine,
		FusedMap:     jc.FusedMap,
		FusedCombine: jc.FusedCombine,
	}, nil
}
