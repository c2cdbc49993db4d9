package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"ramr/internal/mr"
	"ramr/internal/topology"
)

// Plan is a complete thread-to-CPU placement for one RAMR invocation: one
// logical CPU per mapper and per combiner, or -1 for "leave it to the OS".
type Plan struct {
	// MapperCPU[i] is the logical CPU of mapper i (-1 = unpinned).
	MapperCPU []int
	// CombinerCPU[j] is the logical CPU of combiner j (-1 = unpinned).
	CombinerCPU []int
	// Policy records which policy produced the plan.
	Policy mr.PinPolicy
}

// QueueAssignment returns, for each combiner, the half-open range of
// mapper indices whose queues it consumes: combiner j owns mappers
// [lo, hi). Mappers are spread as evenly as possible, so with M mappers
// and C combiners each combiner gets M/C or M/C+1 queues — the
// mapper-to-combiner ratio of §III-B.
func QueueAssignment(mappers, combiners int) [][2]int {
	out := make([][2]int, combiners)
	for j := 0; j < combiners; j++ {
		lo := j * mappers / combiners
		hi := (j + 1) * mappers / combiners
		out[j] = [2]int{lo, hi}
	}
	return out
}

// BuildPlan places mappers and combiners on the machine under the given
// policy.
//
// PinRAMR implements the communication-aware policy of §III-B / Fig. 3:
// the machine's logical CPUs are renumbered into compact (thridtocpu)
// order — SMT siblings adjacent, then cores of the same socket, then the
// next socket — and each combiner is laid out *immediately before its
// assigned mappers* in that order. With a 1:1 ratio on a 2-way SMT
// machine this yields the paper's (2i, 2i+1) combiner/mapper pairs
// sharing one physical core, so their queue traffic flows through the
// shared L1/L2 and the complementary phases share core resources.
//
// PinRoundRobin scatters threads across sockets in role-oblivious order,
// and PinNone produces an all-unpinned plan.
func BuildPlan(m *topology.Machine, mappers, combiners int, policy mr.PinPolicy) Plan {
	return BuildPlanOn(m, nil, mappers, combiners, policy)
}

// BuildPlanOn is BuildPlan restricted to a CPU grant: when grant is
// non-empty the plan only ever places threads on those logical CPUs, so a
// scheduler handing disjoint grants to concurrent jobs gets disjoint
// pinning plans. The contention-aware layout is preserved *inside* the
// grant — PinRAMR walks the machine's compact order filtered to granted
// CPUs, so SMT siblings and same-socket cores that are both granted stay
// adjacent. A nil or empty grant means the whole machine (BuildPlan).
func BuildPlanOn(m *topology.Machine, grant []int, mappers, combiners int, policy mr.PinPolicy) Plan {
	p := Plan{
		MapperCPU:   make([]int, mappers),
		CombinerCPU: make([]int, combiners),
		Policy:      policy,
	}
	inGrant := func(int) bool { return true }
	if len(grant) > 0 {
		set := make(map[int]bool, len(grant))
		any := false
		for _, cpu := range grant {
			set[cpu] = true
			if cpu >= 0 && cpu < m.NumCPUs() {
				any = true
			}
		}
		inGrant = func(cpu int) bool { return set[cpu] }
		// A grant with no CPU on this machine cannot be pinned to;
		// degrade to an unpinned plan rather than divide by zero (the
		// engine validates grants against the resolved machine up front,
		// so this is reachable only through direct BuildPlanOn calls).
		if !any {
			policy = mr.PinNone
		}
	}
	switch policy {
	case mr.PinNone:
		for i := range p.MapperCPU {
			p.MapperCPU[i] = -1
		}
		for j := range p.CombinerCPU {
			p.CombinerCPU[j] = -1
		}
	case mr.PinRoundRobin:
		// Role-oblivious round-robin: threads are pinned in creation
		// order (each combiner followed by its mappers, as the pools
		// spawn) onto *numeric* OS cpu ids. On an SMT-last machine
		// like the Haswell server, consecutive numeric ids are
		// different physical cores — and straddle the socket boundary
		// — so co-operating threads end up communicating through L3
		// or across sockets, which is exactly the deficiency Fig. 5
		// quantifies. On a compact-enumerated machine (Xeon Phi) the
		// numeric order nearly coincides with the topology-aware
		// order, and the paper indeed measures only 1-3% there.
		ids := make([]int, 0, m.NumCPUs())
		for cpu := 0; cpu < m.NumCPUs(); cpu++ {
			if inGrant(cpu) {
				ids = append(ids, cpu)
			}
		}
		sort.Ints(ids)
		slot := 0
		take := func() int {
			cpu := ids[slot%len(ids)]
			slot++
			return cpu
		}
		for j, rng := range QueueAssignment(mappers, combiners) {
			p.CombinerCPU[j] = take()
			for i := rng[0]; i < rng[1]; i++ {
				p.MapperCPU[i] = take()
			}
		}
	case mr.PinRAMR:
		order := make([]int, 0, m.NumCPUs())
		for _, cpu := range m.CompactOrder() {
			if inGrant(cpu) {
				order = append(order, cpu)
			}
		}
		slot := 0
		take := func() int {
			cpu := order[slot%len(order)]
			slot++
			return cpu
		}
		for j, rng := range QueueAssignment(mappers, combiners) {
			p.CombinerCPU[j] = take()
			for i := rng[0]; i < rng[1]; i++ {
				p.MapperCPU[i] = take()
			}
		}
	default:
		panic(fmt.Sprintf("core: unknown pin policy %v", policy))
	}
	return p
}

// MaxDistance returns the worst topology distance between any combiner and
// any of its assigned mappers, a direct measure of how much queue traffic
// leaves the closest shared cache. Unpinned plans return -1 (unknown).
func (p Plan) MaxDistance(m *topology.Machine) int {
	worst := -1
	for j, rng := range QueueAssignment(len(p.MapperCPU), len(p.CombinerCPU)) {
		if p.CombinerCPU[j] < 0 {
			return -1
		}
		for i := rng[0]; i < rng[1]; i++ {
			if p.MapperCPU[i] < 0 {
				return -1
			}
			if d := m.Distance(p.CombinerCPU[j], p.MapperCPU[i]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// ShipsPairs is the placement rule of RAMR batch runs: it
// reports whether the plan puts some combiner on an SMT sibling (distance 1)
// of a mapper whose ring it consumes. That is the one placement where
// shipping a pair pays (§III-B, Fig. 3): a compute-bound map and a
// memory-bound combine then share one core's L1/L2. Only such a run builds
// rings; every other run is one fused pool (FusedPool, DESIGN.md §5.2). An
// unpinned plan never ships, and neither does a one-CPU grant, whose mapper
// and combiner share CPU 0 (distance 0).
func (p Plan) ShipsPairs(m *topology.Machine) bool {
	_, _, ok := p.SiblingPair(m)
	return ok
}

// SiblingPair returns the first combiner j and mapper i it consumes that
// the plan puts on SMT siblings: the witness behind ShipsPairs.
func (p Plan) SiblingPair(m *topology.Machine) (j, i int, ok bool) {
	for j, rng := range QueueAssignment(len(p.MapperCPU), len(p.CombinerCPU)) {
		c := p.CombinerCPU[j]
		if c < 0 {
			continue
		}
		for i := rng[0]; i < rng[1]; i++ {
			if cpu := p.MapperCPU[i]; cpu >= 0 && m.Distance(c, cpu) == 1 {
				return j, i, true
			}
		}
	}
	return -1, -1, false
}

// FusedPool returns the CPU of each worker of the fused pool that a run on
// this plan and grant is when it ships no pair; its length is the pool's
// width. The pool has a worker per mapper and combiner, but never more
// workers than the grant has CPUs, so a job does not take its neighbours'
// cycles; a library run (no grant) owns the machine. The workers take the
// plan's rows, mappers first. A pool cut to its grant takes each CPU those
// rows name once, so no two of its workers share a CPU while a granted one
// idles.
func (p Plan) FusedPool(grant []int) []int {
	cpus := append(slices.Clone(p.MapperCPU), p.CombinerCPU...)
	if len(grant) == 0 || len(grant) >= len(cpus) {
		return cpus
	}
	pool := make([]int, 0, len(grant))
	for _, cpu := range cpus {
		if len(pool) < len(grant) && (cpu < 0 || !slices.Contains(pool, cpu)) {
			pool = append(pool, cpu)
		}
	}
	return pool
}

// String renders the plan for ramrtopo and debugging.
func (p Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pin policy %s\n", p.Policy)
	for j, rng := range QueueAssignment(len(p.MapperCPU), len(p.CombinerCPU)) {
		fmt.Fprintf(&b, "  combiner %d -> cpu %d; mappers", j, p.CombinerCPU[j])
		for i := rng[0]; i < rng[1]; i++ {
			fmt.Fprintf(&b, " %d->cpu %d", i, p.MapperCPU[i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
