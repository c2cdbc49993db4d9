package perfmodel

import (
	"testing"

	"ramr/internal/container"
	"ramr/internal/topology"
)

func defaultKind(app string) container.Kind {
	if app == "WC" {
		return container.KindHash
	}
	return container.KindFixedArray
}

func stressKind(app string) container.Kind {
	if app == "MM" || app == "PCA" {
		return container.KindHash
	}
	return container.KindFixedHash
}

func metricsFor(t *testing.T, stress bool) map[string]Metrics {
	t.Helper()
	m := topology.HaswellServer()
	out := map[string]Metrics{}
	for _, app := range AllApps() {
		kind := defaultKind(app)
		if stress {
			kind = stressKind(app)
		}
		mt, err := Suitability(m, app, kind)
		if err != nil {
			t.Fatal(err)
		}
		out[app] = mt
	}
	return out
}

// TestFig10aShape pins the paper's §IV-E suitability analysis with default
// containers: HG and LR are "light workloads with few stalls"; KM and MM
// are "complex and suffer frequently from stalled cycles"; PCA has "high
// IPB but rare stall cycles"; WC is ambiguous.
func TestFig10aShape(t *testing.T) {
	m := metricsFor(t, false)

	// Intensity: the light apps sit clearly below the complex ones.
	for _, light := range []string{"HG", "LR", "WC"} {
		for _, heavy := range []string{"KM", "MM", "PCA"} {
			if m[light].IPB >= m[heavy].IPB {
				t.Errorf("IPB(%s)=%.1f should be below IPB(%s)=%.1f",
					light, m[light].IPB, heavy, m[heavy].IPB)
			}
		}
	}
	// HG and LR: few stalls.
	for _, app := range []string{"HG", "LR"} {
		if m[app].MSPI > 0.1 || m[app].RSPI > 0.1 {
			t.Errorf("%s should have few stalls, got %v", app, m[app])
		}
	}
	// KM: both stall kinds frequent; MM: memory stalls frequent.
	if m["KM"].MSPI < 0.2 || m["KM"].RSPI < 0.1 {
		t.Errorf("KM should stall frequently, got %v", m["KM"])
	}
	if m["MM"].MSPI < 0.2 {
		t.Errorf("MM should be memory-stalled, got %v", m["MM"])
	}
	// PCA: high IPB but very low stalls relative to KM/MM.
	if m["PCA"].MSPI > m["KM"].MSPI/4 || m["PCA"].RSPI > m["KM"].RSPI/4 {
		t.Errorf("PCA should have rare stalls, got %v vs KM %v", m["PCA"], m["KM"])
	}
}

// TestFig10bShape pins the container-switch directions: "an increase in
// the IPB, MSPI and RSPI metrics is expected", with WC "a reasonable
// exception" (it already used a hash container) and PCA "practically the
// same behavior".
func TestFig10bShape(t *testing.T) {
	def := metricsFor(t, false)
	str := metricsFor(t, true)

	// Hash-family containers add hash computation: IPB rises for every
	// app that switches (all but WC).
	for _, app := range []string{"HG", "KM", "LR", "MM", "PCA"} {
		if str[app].IPB <= def[app].IPB {
			t.Errorf("%s: IPB should rise with hash containers (%.2f -> %.2f)",
				app, def[app].IPB, str[app].IPB)
		}
	}
	// WC stays in the same regime (within 2x either way).
	if r := str["WC"].IPB / def["WC"].IPB; r < 0.5 || r > 2 {
		t.Errorf("WC IPB should be roughly unchanged, ratio %.2f", r)
	}
	// HG gains stalls from the scattered fixed-hash table.
	if str["HG"].MSPI <= def["HG"].MSPI || str["HG"].RSPI <= def["HG"].RSPI {
		t.Errorf("HG stalls should rise: %v -> %v", def["HG"], str["HG"])
	}
}

func TestSuitabilityDeterministic(t *testing.T) {
	m := topology.HaswellServer()
	a, err := Suitability(m, "KM", container.KindFixedArray)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Suitability(m, "KM", container.KindFixedArray)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("not deterministic: %v vs %v", a, b)
	}
}

func TestUnknownApp(t *testing.T) {
	if _, err := ForApp("XX", container.KindHash); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, err := Suitability(topology.HaswellServer(), "XX", container.KindHash); err == nil {
		t.Fatal("unknown app accepted by Suitability")
	}
}

func TestCostsPositive(t *testing.T) {
	m := topology.HaswellServer()
	for _, app := range AllApps() {
		jc, err := JobCostsFor(m, app, defaultKind(app))
		if err != nil {
			t.Fatal(err)
		}
		mc, cc, tr := jc.FusedMap, jc.FusedCombine, jc.Trace
		if mc.CyclesPerElem <= 0 || cc.CyclesPerElem <= 0 {
			t.Fatalf("%s: non-positive phase costs %+v %+v", app, mc, cc)
		}
		if mc.MemFrac < 0 || mc.MemFrac > 1 || cc.MemFrac < 0 || cc.MemFrac > 1 {
			t.Fatalf("%s: memfrac out of range", app)
		}
		if tr.Elements <= 0 || tr.InputBytes <= 0 || tr.ElemBytes <= 0 {
			t.Fatalf("%s: bad trace metadata %+v", app, tr)
		}
	}
}

// TestJobCostsFusedVsSplit: decoupling can only shed cache interference,
// never add it, so per-phase split costs must not exceed fused costs by
// more than measurement jitter.
func TestJobCostsFusedVsSplit(t *testing.T) {
	m := topology.HaswellServer()
	for _, app := range AllApps() {
		jc, err := JobCostsFor(m, app, defaultKind(app))
		if err != nil {
			t.Fatal(err)
		}
		if jc.SplitMap.CyclesPerElem > jc.FusedMap.CyclesPerElem*1.05 {
			t.Errorf("%s: split map (%.1f) costlier than fused (%.1f)",
				app, jc.SplitMap.CyclesPerElem, jc.FusedMap.CyclesPerElem)
		}
		if jc.SplitCombine.CyclesPerElem > jc.FusedCombine.CyclesPerElem*1.05 {
			t.Errorf("%s: split combine (%.1f) costlier than fused (%.1f)",
				app, jc.SplitCombine.CyclesPerElem, jc.FusedCombine.CyclesPerElem)
		}
	}
}

// TestChainedComputeStalls: dependency chains must cost more than
// independent bursts and charge resource stalls.
func TestChainedComputeStalls(t *testing.T) {
	m, err := NewModel(topology.HaswellServer(), 1)
	if err != nil {
		t.Fatal(err)
	}
	indep, _ := m.ExecutePhases(func(emitMap, _ func(Op)) {
		emitMap(Op{Kind: OpCompute, N: 1000})
	})
	m.Reset()
	chained, _ := m.ExecutePhases(func(emitMap, _ func(Op)) {
		emitMap(Op{Kind: OpCompute, N: 1000, Chained: true})
	})
	if chained.Cycles <= indep.Cycles {
		t.Fatal("chained burst should cost more cycles")
	}
	if chained.ResStall == 0 || indep.ResStall != 0 {
		t.Fatalf("resource stalls: chained %d, independent %d", chained.ResStall, indep.ResStall)
	}
	if chained.Inst != indep.Inst {
		t.Fatal("instruction counts should match")
	}
}

// TestDependentLoadStalls: pointer chases over a cold region charge both
// memory and resource stalls; plain loads only memory stalls.
func TestDependentLoadStalls(t *testing.T) {
	m, _ := NewModel(topology.HaswellServer(), 1)
	plain, _ := m.ExecutePhases(func(emitMap, _ func(Op)) {
		for i := 0; i < 64; i++ {
			emitMap(Op{Kind: OpLoad, Addr: uint64(i) * 1 << 16})
		}
	})
	m.Reset()
	dep, _ := m.ExecutePhases(func(emitMap, _ func(Op)) {
		for i := 0; i < 64; i++ {
			emitMap(Op{Kind: OpLoad, Addr: uint64(i+100) * 1 << 16, Dep: true})
		}
	})
	if plain.ResStall != 0 {
		t.Fatal("plain load charged resource stalls")
	}
	if dep.ResStall == 0 {
		t.Fatal("dependent miss charged no resource stalls")
	}
	if plain.MemStall == 0 || dep.MemStall == 0 {
		t.Fatal("misses charged no memory stalls")
	}
}

func TestComputeMetricsEdges(t *testing.T) {
	m := ComputeMetrics(Counters{}, 0)
	if m.IPB != 0 || m.MSPI != 0 || m.RSPI != 0 {
		t.Fatal("zero counters should yield zero metrics")
	}
	m2 := ComputeMetrics(Counters{Inst: 100, MemStall: 50, ResStall: 25}, 10)
	if m2.IPB != 10 || m2.MSPI != 0.5 || m2.RSPI != 0.25 {
		t.Fatalf("%v", m2)
	}
	if m2.String() == "" {
		t.Fatal("empty String")
	}
}

// TestPhiModelSerializesMore: the same trace costs relatively more on the
// in-order Phi model than on Haswell (per-cycle terms, not wall time).
func TestPhiModelSerializesMore(t *testing.T) {
	trace := func(emitMap, _ func(Op)) {
		for i := 0; i < 100; i++ {
			emitMap(Op{Kind: OpCompute, N: 40, Chained: true})
		}
	}
	h, _ := NewModel(topology.HaswellServer(), 1)
	p, _ := NewModel(topology.XeonPhi(), 1)
	hc, _ := h.ExecutePhases(trace)
	pc, _ := p.ExecutePhases(trace)
	if pc.Cycles <= hc.Cycles {
		t.Fatalf("in-order model should be slower: phi %d vs hwl %d", pc.Cycles, hc.Cycles)
	}
}

// TestBoostSharedLevels: only socket/global levels grow; per-core stays.
func TestBoostSharedLevels(t *testing.T) {
	m := topology.HaswellServer()
	b := boostSharedLevels(m, 2)
	for i, c := range m.Caches {
		got := b.Caches[i].SizeBytes
		switch c.Scope {
		case topology.ScopePerCore:
			if got != c.SizeBytes {
				t.Fatalf("L%d per-core level scaled", c.Level)
			}
		default:
			if got != 2*c.SizeBytes {
				t.Fatalf("L%d shared level not scaled", c.Level)
			}
		}
	}
	// The original machine must be untouched.
	if m.Caches[2].SizeBytes != topology.HaswellServer().Caches[2].SizeBytes {
		t.Fatal("boostSharedLevels mutated its input")
	}
}
