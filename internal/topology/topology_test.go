package topology

import (
	"testing"
	"testing/quick"
)

func TestPresetsValidate(t *testing.T) {
	for name, f := range Presets() {
		m := f()
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if err := Flat(4).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHaswellDimensions(t *testing.T) {
	m := HaswellServer()
	if m.NumCPUs() != 56 || m.NumCores() != 28 {
		t.Fatalf("Haswell: %d cpus / %d cores, want 56/28", m.NumCPUs(), m.NumCores())
	}
	// SMT-last numbering: cpu 0 and cpu 28 share a physical core.
	if m.Distance(0, 28) != 1 {
		t.Fatalf("cpu 0 and 28 should be SMT siblings, distance %d", m.Distance(0, 28))
	}
	// cpu 0 and cpu 1 are different cores on socket 0.
	if m.Distance(0, 1) != 2 {
		t.Fatalf("cpu 0 and 1 distance = %d, want 2", m.Distance(0, 1))
	}
	// cpu 0 (socket 0) and cpu 14 (socket 1) are cross-socket.
	if m.Distance(0, 14) != 3 {
		t.Fatalf("cpu 0 and 14 distance = %d, want 3", m.Distance(0, 14))
	}
	if m.Distance(5, 5) != 0 {
		t.Fatal("distance to self should be 0")
	}
}

func TestXeonPhiDimensions(t *testing.T) {
	m := XeonPhi()
	if m.NumCPUs() != 228 || m.NumCores() != 57 {
		t.Fatalf("Phi: %d cpus / %d cores, want 228/57", m.NumCPUs(), m.NumCores())
	}
	// Compact numbering: cpus 0..3 are the four threads of core 0.
	for i := 1; i < 4; i++ {
		if m.Distance(0, i) != 1 {
			t.Fatalf("cpu 0 and %d should share core 0", i)
		}
	}
	if m.Distance(0, 4) != 2 {
		t.Fatalf("cpu 0 and 4 should be different cores, same die")
	}
	// The global L2 is shared by any pair.
	if m.SharedCacheLevel(0, 227) != 2 {
		t.Fatalf("ring L2 should be shared machine-wide, got L%d", m.SharedCacheLevel(0, 227))
	}
}

func TestSharedCacheLevelHaswell(t *testing.T) {
	m := HaswellServer()
	if lvl := m.SharedCacheLevel(0, 28); lvl != 1 {
		t.Fatalf("SMT siblings should share L1, got L%d", lvl)
	}
	if lvl := m.SharedCacheLevel(0, 1); lvl != 3 {
		t.Fatalf("same-socket cores should share L3, got L%d", lvl)
	}
	if lvl := m.SharedCacheLevel(0, 14); lvl != 0 {
		t.Fatalf("cross-socket pair should share nothing, got L%d", lvl)
	}
}

func TestTransferLatencyMonotone(t *testing.T) {
	m := HaswellServer()
	sib := m.TransferLatency(0, 28)
	sock := m.TransferLatency(0, 1)
	cross := m.TransferLatency(0, 14)
	if !(sib < sock && sock < cross) {
		t.Fatalf("latency not monotone in distance: %d, %d, %d", sib, sock, cross)
	}
}

// TestCompactOrderAdjacency is the Fig. 3 property: consecutive compact
// positions share a physical core (for every even index on 2-way SMT).
func TestCompactOrderAdjacency(t *testing.T) {
	for _, m := range []*Machine{HaswellServer(), Fig3Example()} {
		order := m.CompactOrder()
		if len(order) != m.NumCPUs() {
			t.Fatalf("%s: compact order covers %d of %d cpus", m.Name, len(order), m.NumCPUs())
		}
		for i := 0; i+1 < len(order); i += 2 {
			if m.Distance(order[i], order[i+1]) != 1 {
				t.Fatalf("%s: compact[%d]=%d and compact[%d]=%d do not share a core",
					m.Name, i, order[i], i+1, order[i+1])
			}
		}
	}
}

// TestFig3Remap pins the example of the paper's Fig. 3: two nodes, four
// cores each, 2-way SMT with SMT-last ids. The remapped pairs (2i, 2i+1)
// must land on one physical core, and the first node's eight compact slots
// must stay on node 0.
func TestFig3Remap(t *testing.T) {
	m := Fig3Example()
	order := m.CompactOrder()
	cpus := m.CPUs()
	for i := 0; i < 8; i++ {
		if cpus[order[i]].Socket != 0 {
			t.Fatalf("compact[%d]=%d should be on node 0", i, order[i])
		}
	}
	for i := 8; i < 16; i++ {
		if cpus[order[i]].Socket != 1 {
			t.Fatalf("compact[%d]=%d should be on node 1", i, order[i])
		}
	}
	// SMT-last: cpu k and cpu k+8 are siblings, so the remap interleaves
	// them: 0,8,1,9,2,10,...
	want := []int{0, 8, 1, 9, 2, 10, 3, 11, 4, 12, 5, 13, 6, 14, 7, 15}
	for i, cpu := range order {
		if cpu != want[i] {
			t.Fatalf("compact order[%d] = %d, want %d (full: %v)", i, cpu, want[i], order)
		}
	}
}

func TestLocalityGroups(t *testing.T) {
	m := HaswellServer()
	groups := m.LocalityGroups()
	if len(groups) != 2 {
		t.Fatalf("%d groups, want 2", len(groups))
	}
	total := 0
	for s, g := range groups {
		total += len(g)
		for _, cpu := range g {
			c, err := m.CPUByID(cpu)
			if err != nil {
				t.Fatal(err)
			}
			if c.Socket != s {
				t.Fatalf("cpu %d in group %d but on socket %d", cpu, s, c.Socket)
			}
		}
	}
	if total != m.NumCPUs() {
		t.Fatalf("groups cover %d cpus, want %d", total, m.NumCPUs())
	}
}

func TestCPUByIDBounds(t *testing.T) {
	m := Fig3Example()
	if _, err := m.CPUByID(-1); err == nil {
		t.Fatal("negative id accepted")
	}
	if _, err := m.CPUByID(16); err == nil {
		t.Fatal("out-of-range id accepted")
	}
	c, err := m.CPUByID(0)
	if err != nil || c.ID != 0 {
		t.Fatalf("CPUByID(0) = %+v, %v", c, err)
	}
}

func TestValidateRejectsBroken(t *testing.T) {
	for name, m := range map[string]*Machine{
		"no-caches":   {Name: "x", Sockets: 1, CoresPerSocket: 2, ThreadsPerCore: 1},
		"zero-cores":  {Name: "x", Sockets: 1, CoresPerSocket: 0, ThreadsPerCore: 1, Caches: HaswellServer().Caches},
		"level-order": {Name: "x", Sockets: 1, CoresPerSocket: 2, ThreadsPerCore: 1, Caches: []CacheLevel{{Level: 2, SizeBytes: 1, LineBytes: 1, Assoc: 1}, {Level: 1, SizeBytes: 1, LineBytes: 1, Assoc: 1}}},
		"bad-geometry": {Name: "x", Sockets: 1, CoresPerSocket: 2, ThreadsPerCore: 1,
			Caches: []CacheLevel{{Level: 1, SizeBytes: 0, LineBytes: 64, Assoc: 8}}},
	} {
		if err := m.Validate(); err == nil {
			t.Fatalf("%s: Validate accepted a broken machine", name)
		}
	}
}

// TestQuickDistanceSymmetry: distance is symmetric and bounded for random
// machine shapes.
func TestQuickDistanceSymmetry(t *testing.T) {
	f := func(sock, cores, smt uint8, a, b uint16) bool {
		m := &Machine{
			Name:           "q",
			Sockets:        int(sock%3) + 1,
			CoresPerSocket: int(cores%8) + 1,
			ThreadsPerCore: int(smt%4) + 1,
			Enum:           Enumeration(int(sock) % 2),
			Caches:         Flat(1).Caches,
		}
		n := m.NumCPUs()
		x, y := int(a)%n, int(b)%n
		d1, d2 := m.Distance(x, y), m.Distance(y, x)
		if d1 != d2 || d1 < 0 || d1 > 3 {
			return false
		}
		return (x == y) == (d1 == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestScopeString(t *testing.T) {
	for s, want := range map[Scope]string{
		ScopePerThread: "per-thread",
		ScopePerCore:   "per-core",
		ScopePerSocket: "per-socket",
		ScopeGlobal:    "global",
	} {
		if s.String() != want {
			t.Fatalf("%v", s)
		}
	}
	if Scope(9).String() == "" {
		t.Fatal("unknown scope should render")
	}
}

func TestMachineString(t *testing.T) {
	if s := HaswellServer().String(); s == "" {
		t.Fatal("empty String()")
	}
}

// nonDense builds a two-socket machine whose firmware numbers its packages
// 0 and 2 — the gap real hosts get from offline NUMA nodes or sub-NUMA
// clustering.
func nonDense() *Machine {
	m := HaswellServer()
	m.Name = "haswell-non-dense"
	m.SocketIDs = []int{0, 2}
	return m
}

// TestLocalityGroupsNonDenseSockets pins that group positions stay dense
// (0..Sockets-1) even when socket labels are not: the old label-as-index
// scheme would have indexed groups[2] out of a 2-element slice.
func TestLocalityGroupsNonDenseSockets(t *testing.T) {
	m := nonDense()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	groups := m.LocalityGroups()
	if len(groups) != 2 {
		t.Fatalf("%d groups, want 2", len(groups))
	}
	total := 0
	wantLabel := []int{0, 2}
	for g, cpus := range groups {
		total += len(cpus)
		for _, id := range cpus {
			c, err := m.CPUByID(id)
			if err != nil {
				t.Fatal(err)
			}
			if c.Socket != wantLabel[g] {
				t.Fatalf("cpu %d in group %d carries socket label %d, want %d", id, g, c.Socket, wantLabel[g])
			}
		}
	}
	if total != m.NumCPUs() {
		t.Fatalf("groups cover %d cpus, want %d", total, m.NumCPUs())
	}
}

// TestGroupOfNonDenseSockets: GroupOf translates every CPU to a dense group
// index consistent with its position in LocalityGroups.
func TestGroupOfNonDenseSockets(t *testing.T) {
	m := nonDense()
	groups := m.LocalityGroups()
	for g, cpus := range groups {
		for _, id := range cpus {
			got, ok := m.GroupOf(id)
			if !ok || got != g {
				t.Fatalf("GroupOf(%d) = %d,%v, want %d,true", id, got, ok, g)
			}
		}
	}
	if _, ok := m.GroupOf(-1); ok {
		t.Fatal("GroupOf accepted a negative id")
	}
	if _, ok := m.GroupOf(m.NumCPUs()); ok {
		t.Fatal("GroupOf accepted an out-of-range id")
	}
}

// TestValidateSocketIDs: the label list must match the socket count and
// strictly ascend.
func TestValidateSocketIDs(t *testing.T) {
	short := HaswellServer()
	short.SocketIDs = []int{0}
	if err := short.Validate(); err == nil {
		t.Fatal("short SocketIDs accepted")
	}
	dup := HaswellServer()
	dup.SocketIDs = []int{1, 1}
	if err := dup.Validate(); err == nil {
		t.Fatal("non-ascending SocketIDs accepted")
	}
}
