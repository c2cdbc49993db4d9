// Package perfmodel supplies the performance counters the paper reads from
// hardware PMUs (§IV-E): instructions, memory-stall cycles and
// resource-stall cycles, from which the suitability metrics derive:
//
//	IPB  = instructions / input bytes          (workload intensity)
//	MSPI = memory-stall cycles / instruction   (L1/L2 miss pressure)
//	RSPI = resource-stall cycles / instruction (ROB/RS/LSQ pressure)
//
// Real PMCs are unavailable in this environment, so the counters come from
// a trace-driven architectural model: each application contributes a
// deterministic, *interleaved* map/combine access stream (traces.go) —
// interleaved because that is how the fused (Phoenix++) and overlapped
// (RAMR) runtimes actually execute, and because the container traffic must
// share cache capacity with the input traffic for the Fig. 10 container
// effects to appear. The stream executes against the cache simulator
// (internal/cachesim) plus a coarse core resource model. The paper itself
// stresses that "all three metrics are only meaningful when used
// comparatively"; the model preserves exactly that — the cross-application
// ordering and the direction of change when containers switch — which is
// what Fig. 10 claims. See DESIGN.md's substitution table.
package perfmodel

import (
	"fmt"

	"ramr/internal/cachesim"
	"ramr/internal/topology"
)

// OpKind tags one abstract operation of a trace.
type OpKind int

const (
	// OpCompute is a burst of N arithmetic/logic instructions.
	OpCompute OpKind = iota
	// OpLoad is one memory read at Addr.
	OpLoad
	// OpStore is one memory write at Addr.
	OpStore
	// OpAlloc is one dynamic allocation (malloc-like): bookkeeping
	// instructions plus scattered metadata traffic.
	OpAlloc
)

// Op is one element of an application trace.
type Op struct {
	Kind OpKind
	// N is the instruction count for OpCompute.
	N int
	// Chained marks an OpCompute burst whose instructions form a
	// dependency chain (e.g. a reduction accumulator), issuing at the
	// FP latency rather than the issue width — the "no eligible RS
	// entries" stall source.
	Chained bool
	// Addr is the byte address for OpLoad/OpStore.
	Addr uint64
	// Dep marks an OpLoad that is address-dependent on a preceding load
	// (a pointer chase). A dependent miss cannot overlap with anything:
	// the ROB fills behind it, so half its penalty is additionally
	// charged as a resource stall.
	Dep bool
}

// PhasedTrace generates an application's map/combine operation stream.
// Operations passed to emitMap are charged to the map phase, emitCombine
// to the combine phase; the generator interleaves them in program order.
type PhasedTrace func(emitMap, emitCombine func(Op))

// Counters accumulates raw model outputs.
type Counters struct {
	Inst     uint64
	Cycles   uint64
	MemStall uint64
	ResStall uint64
}

// Add accumulates other into c.
func (c *Counters) Add(o Counters) {
	c.Inst += o.Inst
	c.Cycles += o.Cycles
	c.MemStall += o.MemStall
	c.ResStall += o.ResStall
}

// Metrics are the paper's three suitability metrics plus the raw counters.
type Metrics struct {
	IPB  float64
	MSPI float64
	RSPI float64
	Raw  Counters
}

// ComputeMetrics derives the metrics from counters and the input volume.
func ComputeMetrics(c Counters, inputBytes int) Metrics {
	m := Metrics{Raw: c}
	if inputBytes > 0 {
		m.IPB = float64(c.Inst) / float64(inputBytes)
	}
	if c.Inst > 0 {
		m.MSPI = float64(c.MemStall) / float64(c.Inst)
		m.RSPI = float64(c.ResStall) / float64(c.Inst)
	}
	return m
}

// String renders the metrics in Fig. 10's units.
func (m Metrics) String() string {
	return fmt.Sprintf("IPB=%.2f MSPI=%.4f RSPI=%.4f", m.IPB, m.MSPI, m.RSPI)
}

// Model executes traces against one hardware thread's cache view plus a
// coarse core resource model.
type Model struct {
	hier *cachesim.Hierarchy
	// issueWidth is the superscalar width (4 on Haswell, 2 on the
	// in-order Xeon Phi).
	issueWidth int
	// chainLatency is the dependent-op issue interval in cycles.
	chainLatency int
	// chainDamp divides the raw dependency-chain stall, modeling the
	// compiler's partial chain-breaking (unrolling with multiple
	// accumulators).
	chainDamp int
	// storeBuffer is how many outstanding store misses are absorbed
	// before the store buffer backpressures into resource stalls.
	storeBuffer int

	pendingStores int
}

// NewModel builds the model for one machine. The hardware thread sees its
// fair share of each cache level under full occupancy (cachesim
// NewPerThread); shareDiv further divides that share when the caller
// models extra co-resident working sets (1 for the standard view).
func NewModel(m *topology.Machine, shareDiv int) (*Model, error) {
	h, err := cachesim.NewPerThread(m)
	if err != nil {
		return nil, err
	}
	if shareDiv > 1 {
		h, err = cachesim.NewScaled(m, shareDiv)
	}
	if err != nil {
		return nil, err
	}
	width, chain, damp := 4, 3, 4
	if m.Name == "xeon-phi" {
		// In-order, narrower core: lower width, chains fully exposed.
		width, chain, damp = 2, 4, 2
	}
	return &Model{
		hier:         h,
		issueWidth:   width,
		chainLatency: chain,
		chainDamp:    damp,
		storeBuffer:  8,
	}, nil
}

// apply charges one operation to c. Each charge maps to a real mechanism:
//
//   - compute bursts cost N/width cycles; a dependency chain issues at
//     chainLatency per op with the (damped) excess charged as resource
//     stalls (RS occupancy);
//   - load misses charge their full serialized miss penalty to both the
//     cycle and memory-stall counters; how much of that stall overlaps
//     with other work is *discipline-dependent* (a batched combiner
//     pipelines independent misses, a fused worker hides at most an OOO
//     window's worth), so the runtime simulator applies the
//     memory-level-parallelism division, not this model;
//   - store misses charge half memory / half resource stalls once the
//     store buffer is saturated (LSQ pressure);
//   - allocations charge allocator bookkeeping instructions and metadata
//     traffic.
func (m *Model) apply(c *Counters, op Op) {
	l1 := m.hier.L1Latency()
	switch op.Kind {
	case OpCompute:
		if op.N <= 0 {
			return
		}
		c.Inst += uint64(op.N)
		ideal := uint64(op.N+m.issueWidth-1) / uint64(m.issueWidth)
		if op.Chained {
			raw := uint64(op.N * m.chainLatency)
			stall := (raw - ideal) / uint64(m.chainDamp)
			c.Cycles += ideal + stall
			c.ResStall += stall
		} else {
			c.Cycles += ideal
		}
	case OpLoad:
		c.Inst++
		lat := m.hier.Access(op.Addr)
		if lat > l1 {
			pen := uint64(lat - l1)
			c.MemStall += pen
			c.Cycles += pen + 1
			if op.Dep {
				// ROB fills behind the serialized pointer chase.
				c.ResStall += pen / 2
			}
		} else {
			c.Cycles++
		}
		if m.pendingStores > 0 {
			m.pendingStores--
		}
	case OpStore:
		c.Inst++
		lat := m.hier.Access(op.Addr)
		c.Cycles++
		if lat > l1 {
			pen := uint64(lat - l1)
			m.pendingStores++
			if m.pendingStores > m.storeBuffer {
				// Buffer full: the core actually waits.
				c.ResStall += pen / 2
				c.MemStall += pen / 2
				c.Cycles += pen / 2
				m.pendingStores = m.storeBuffer
			} else {
				// Absorbed: charge a token memory stall for the
				// write-allocate traffic.
				c.MemStall += pen / 4
			}
		}
	case OpAlloc:
		// Allocator fast path: bookkeeping plus free-list metadata
		// touches scattered over the heap.
		c.Inst += 60
		c.Cycles += 20
		lat := m.hier.Access(0x7f00_0000_0000 + (c.Inst*2654435761)%(1<<20))
		if lat > l1 {
			pen := uint64(lat - l1)
			c.MemStall += pen
			c.Cycles += pen
		}
	}
}

// ExecutePhases runs the interleaved trace and returns the map-phase and
// combine-phase counters separately (their sum is the Fig. 10 input; the
// split feeds the runtime simulator's per-phase costs).
func (m *Model) ExecutePhases(t PhasedTrace) (mapC, combC Counters) {
	t(func(op Op) { m.apply(&mapC, op) },
		func(op Op) { m.apply(&combC, op) })
	return mapC, combC
}

// Reset clears cache contents and internal state between runs.
func (m *Model) Reset() {
	m.hier.Reset()
	m.pendingStores = 0
}
