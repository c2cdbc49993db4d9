// Package topology models the processor topology that the RAMR runtime is
// resource-aware of: logical CPUs, SMT siblings, physical cores, sockets /
// NUMA nodes and the cache-sharing domains between them.
//
// The paper (§III-B, Fig. 3) derives its contention-aware pinning policy
// purely from this information: given the mapper-to-combiner ratio, threads
// are renumbered so that co-operating threads land on logical CPUs that
// share the closest possible cache level. Everything in this package is a
// pure function of the machine description, so the same policy code runs
// unchanged against the paper's Haswell and Xeon Phi presets, against the
// detected host, or against a synthetic machine inside the platform model
// (internal/simarch).
package topology

import (
	"fmt"
	"sort"
)

// Scope identifies the sharing domain of a cache level.
type Scope int

const (
	// ScopePerThread marks a resource private to one hardware thread.
	ScopePerThread Scope = iota
	// ScopePerCore marks a cache shared by the SMT siblings of one core
	// (L1/L2 on Haswell, L1 on Xeon Phi).
	ScopePerCore
	// ScopePerSocket marks a cache shared by all cores of one socket
	// (L3 on Haswell).
	ScopePerSocket
	// ScopeGlobal marks a cache shared machine-wide (the Xeon Phi ring
	// of L2 slices behaves as a universally shared last-level cache).
	ScopeGlobal
)

// String returns the conventional name of the scope.
func (s Scope) String() string {
	switch s {
	case ScopePerThread:
		return "per-thread"
	case ScopePerCore:
		return "per-core"
	case ScopePerSocket:
		return "per-socket"
	case ScopeGlobal:
		return "global"
	default:
		return fmt.Sprintf("Scope(%d)", int(s))
	}
}

// CacheLevel describes one level of the cache hierarchy.
type CacheLevel struct {
	// Level is the conventional cache level number (1, 2, 3).
	Level int
	// SizeBytes is the capacity of one instance of this cache.
	SizeBytes int
	// LineBytes is the cache line size (64 on both evaluation platforms).
	LineBytes int
	// Assoc is the set associativity.
	Assoc int
	// Scope is the sharing domain of one instance.
	Scope Scope
	// LatencyCycles is the approximate load-to-use latency, used by the
	// cache simulator and the platform model.
	LatencyCycles int
}

// Enumeration selects how the operating system numbers logical CPUs.
type Enumeration int

const (
	// EnumSMTLast numbers all first hardware threads of every core
	// before any sibling threads (the common Linux numbering on Intel
	// servers: cpu 0..N-1 are distinct cores, cpu N.. are their
	// hyper-thread siblings). This is the "original mapping" on the
	// left of the paper's Fig. 3.
	EnumSMTLast Enumeration = iota
	// EnumCompact numbers the SMT siblings of a core consecutively
	// (cpu 4c..4c+3 are the four threads of core c on Xeon Phi).
	EnumCompact
)

// CPU is one logical processor.
type CPU struct {
	// ID is the OS logical CPU number.
	ID int
	// Socket is the socket (== NUMA node on both evaluation platforms).
	// It is the OS-assigned *label* of the socket, not a dense index:
	// firmware with offline nodes or sub-NUMA clustering leaves gaps in
	// the numbering, so code needing a dense index must go through
	// Machine.GroupOf / LocalityGroups rather than using Socket directly.
	Socket int
	// Core is the machine-global physical core index.
	Core int
	// SMT is the hardware-thread index within the core.
	SMT int
}

// Machine is a full processor description.
type Machine struct {
	// Name labels the machine in reports ("haswell-server", ...).
	Name string
	// Sockets is the number of sockets; each socket is one NUMA node.
	Sockets int
	// CoresPerSocket is the number of physical cores per socket.
	CoresPerSocket int
	// ThreadsPerCore is the SMT width.
	ThreadsPerCore int
	// Caches lists the hierarchy from L1 outward.
	Caches []CacheLevel
	// Enum is the logical CPU numbering scheme.
	Enum Enumeration
	// MemLatencyCycles is the approximate DRAM access latency used by
	// the simulator when every cache level misses.
	MemLatencyCycles int
	// CrossSocketPenaltyCycles is the extra latency of a remote-socket
	// access (QPI hop on Haswell; zero on the single-die Xeon Phi).
	CrossSocketPenaltyCycles int
	// SocketIDs optionally carries the OS-assigned id of each socket
	// (physical_package_id), in ascending order. Real firmware does not
	// promise dense numbering, so when set these become the CPU.Socket
	// labels; nil means the dense default 0..Sockets-1.
	SocketIDs []int

	cpus    []CPU       // lazily built, indexed by logical id
	byCore  map[int]int // first logical id per global core, for tests
	groupOf map[int]int // socket label -> LocalityGroups index
}

// NumCPUs returns the number of logical CPUs.
func (m *Machine) NumCPUs() int {
	return m.Sockets * m.CoresPerSocket * m.ThreadsPerCore
}

// NumCores returns the number of physical cores.
func (m *Machine) NumCores() int {
	return m.Sockets * m.CoresPerSocket
}

// CPUs returns all logical CPUs indexed by logical id.
func (m *Machine) CPUs() []CPU {
	if m.cpus == nil {
		m.build()
	}
	return m.cpus
}

// CPUByID returns the logical CPU with the given OS id.
func (m *Machine) CPUByID(id int) (CPU, error) {
	cpus := m.CPUs()
	if id < 0 || id >= len(cpus) {
		return CPU{}, fmt.Errorf("topology: cpu id %d out of range [0,%d)", id, len(cpus))
	}
	return cpus[id], nil
}

func (m *Machine) build() {
	n := m.NumCPUs()
	m.cpus = make([]CPU, n)
	m.byCore = make(map[int]int)
	m.groupOf = make(map[int]int)
	for s := 0; s < m.Sockets; s++ {
		m.groupOf[m.socketID(s)] = s
	}
	id := 0
	switch m.Enum {
	case EnumSMTLast:
		for smt := 0; smt < m.ThreadsPerCore; smt++ {
			for s := 0; s < m.Sockets; s++ {
				for c := 0; c < m.CoresPerSocket; c++ {
					core := s*m.CoresPerSocket + c
					m.cpus[id] = CPU{ID: id, Socket: m.socketID(s), Core: core, SMT: smt}
					if smt == 0 {
						m.byCore[core] = id
					}
					id++
				}
			}
		}
	case EnumCompact:
		for s := 0; s < m.Sockets; s++ {
			for c := 0; c < m.CoresPerSocket; c++ {
				core := s*m.CoresPerSocket + c
				for smt := 0; smt < m.ThreadsPerCore; smt++ {
					m.cpus[id] = CPU{ID: id, Socket: m.socketID(s), Core: core, SMT: smt}
					if smt == 0 {
						m.byCore[core] = id
					}
					id++
				}
			}
		}
	default:
		panic(fmt.Sprintf("topology: unknown enumeration %d", m.Enum))
	}
}

// socketID maps a dense socket position to its OS label.
func (m *Machine) socketID(s int) int {
	if m.SocketIDs != nil {
		return m.SocketIDs[s]
	}
	return s
}

// Distance quantifies communication cost between two logical CPUs:
//
//	0 — same logical CPU
//	1 — SMT siblings (shared L1/L2 on Haswell, shared L1 on Phi)
//	2 — same socket, different core (shared L3 / L2 ring)
//	3 — different socket (cross-NUMA)
func (m *Machine) Distance(a, b int) int {
	cpus := m.CPUs()
	ca, cb := cpus[a], cpus[b]
	switch {
	case ca.ID == cb.ID:
		return 0
	case ca.Core == cb.Core:
		return 1
	case ca.Socket == cb.Socket:
		return 2
	default:
		return 3
	}
}

// SharedCacheLevel returns the innermost cache level shared by the two
// logical CPUs, or 0 when they share no cache (cross-socket with no global
// level; communication then goes through memory).
func (m *Machine) SharedCacheLevel(a, b int) int {
	d := m.Distance(a, b)
	for _, c := range m.Caches {
		switch c.Scope {
		case ScopePerCore:
			if d <= 1 {
				return c.Level
			}
		case ScopePerSocket:
			if d <= 2 {
				return c.Level
			}
		case ScopeGlobal:
			return c.Level
		}
	}
	return 0
}

// TransferLatency estimates the cycles for one cache line to move from
// producer CPU a to consumer CPU b; VictimOrder ranks steal victims by it. The
// shape matters more than the absolute value: sibling threads talk through
// L1/L2, same-socket cores through L3, remote cores through memory plus the
// interconnect penalty.
func (m *Machine) TransferLatency(a, b int) int {
	lvl := m.SharedCacheLevel(a, b)
	if lvl == 0 {
		return m.MemLatencyCycles + m.CrossSocketPenaltyCycles
	}
	for _, c := range m.Caches {
		if c.Level == lvl {
			lat := c.LatencyCycles
			if m.Distance(a, b) == 3 {
				lat += m.CrossSocketPenaltyCycles
			}
			return lat
		}
	}
	return m.MemLatencyCycles
}

// Cache returns the descriptor of the given level and true, or a zero value
// and false when the machine has no such level.
func (m *Machine) Cache(level int) (CacheLevel, bool) {
	for _, c := range m.Caches {
		if c.Level == level {
			return c, true
		}
	}
	return CacheLevel{}, false
}

// LocalityGroups partitions the logical CPUs by NUMA node, returning one
// slice of logical ids per node, in ascending socket-label order. RAMR
// keeps one task queue per locality group so mappers dequeue NUMA-local
// splits. Group positions are dense even when socket labels are not; use
// GroupOf to translate a CPU into its group index.
func (m *Machine) LocalityGroups() [][]int {
	groups := make([][]int, m.Sockets)
	for _, c := range m.CPUs() {
		g := m.groupOf[c.Socket]
		groups[g] = append(groups[g], c.ID)
	}
	for _, g := range groups {
		sort.Ints(g)
	}
	return groups
}

// GroupOf returns the locality-group index (the CPU's position in
// LocalityGroups) of the given logical CPU. The second result is false
// when the id is out of range. The group index — not the raw CPU.Socket
// label — is what task-queue steering must use: on machines with
// non-dense socket numbering the label can exceed the group count.
func (m *Machine) GroupOf(cpuID int) (int, bool) {
	cpus := m.CPUs()
	if cpuID < 0 || cpuID >= len(cpus) {
		return 0, false
	}
	g, ok := m.groupOf[cpus[cpuID].Socket]
	return g, ok
}

// StealClass buckets a work-steal by the communication distance between
// the thief's locality group and the victim's, mirroring Distance but at
// group granularity. Telemetry counts steals per class so skew reports can
// separate cheap cache-local rebalancing from expensive cross-NUMA moves.
type StealClass int

const (
	// StealLocal is a take from the thief's own group deque (not a steal
	// in the strict sense; counted so local/remote ratios are computable).
	StealLocal StealClass = iota
	// StealSocket is a steal between groups that still share a cache
	// level (the Xeon Phi ring of L2 slices spans all groups), so the
	// stolen splits stay LLC-resident.
	StealSocket
	// StealRemote is a steal between groups with no shared cache: the
	// splits cross the interconnect and fault into the thief's node.
	StealRemote
	// NumStealClasses sizes per-class counter arrays.
	NumStealClasses = 3
)

// String returns the class label used in metrics ("local", "socket",
// "remote").
func (c StealClass) String() string {
	switch c {
	case StealLocal:
		return "local"
	case StealSocket:
		return "socket"
	case StealRemote:
		return "remote"
	default:
		return fmt.Sprintf("StealClass(%d)", int(c))
	}
}

// groupRep returns the representative logical CPU (lowest id) of locality
// group g, for group-to-group distance queries.
func (m *Machine) groupRep(g int) int {
	return m.LocalityGroups()[g][0]
}

// GroupStealClass classifies a steal from group `from` (the thief) out of
// group `victim`. Locality groups are NUMA nodes, so any cross-group pair
// is Distance 3; what actually differentiates the cost is whether a cache
// level still spans both groups (ScopeGlobal LLC) or the line must travel
// through memory.
func (m *Machine) GroupStealClass(from, victim int) StealClass {
	if from == victim {
		return StealLocal
	}
	if m.SharedCacheLevel(m.groupRep(from), m.groupRep(victim)) > 0 {
		return StealSocket
	}
	return StealRemote
}

// VictimOrder precomputes, for every locality group, the other groups
// sorted by ascending transfer cost from that group's CPUs — the order in
// which an idle mapper should probe for work to steal. Cost is the
// TransferLatency between group representatives (which folds in shared
// cache levels and the cross-socket penalty); ties break by ring distance
// (victim-from mod n) so equal-cost victims are spread deterministically
// instead of all thieves converging on group 0.
func (m *Machine) VictimOrder() [][]int {
	n := len(m.LocalityGroups())
	order := make([][]int, n)
	for g := 0; g < n; g++ {
		victims := make([]int, 0, n-1)
		for v := 0; v < n; v++ {
			if v != g {
				victims = append(victims, v)
			}
		}
		rep := m.groupRep(g)
		sort.Slice(victims, func(i, j int) bool {
			a, b := victims[i], victims[j]
			la := m.TransferLatency(rep, m.groupRep(a))
			lb := m.TransferLatency(rep, m.groupRep(b))
			if la != lb {
				return la < lb
			}
			return (a-g+n)%n < (b-g+n)%n
		})
		order[g] = victims
	}
	return order
}

// CompactOrder returns logical CPU ids reordered so that consecutive
// positions are physically adjacent: the SMT siblings of a core first, then
// the next core of the same socket, then the next socket. This is the
// thridtocpu() remapping of the paper's Fig. 3: pinning thread t to
// CompactOrder()[t] makes the pairs (2i, 2i+1) share a physical core on a
// 2-way SMT machine.
func (m *Machine) CompactOrder() []int {
	cpus := append([]CPU(nil), m.CPUs()...)
	sort.Slice(cpus, func(i, j int) bool {
		a, b := cpus[i], cpus[j]
		if a.Socket != b.Socket {
			return a.Socket < b.Socket
		}
		if a.Core != b.Core {
			return a.Core < b.Core
		}
		return a.SMT < b.SMT
	})
	out := make([]int, len(cpus))
	for i, c := range cpus {
		out[i] = c.ID
	}
	return out
}

// Validate checks internal consistency of the description.
func (m *Machine) Validate() error {
	if m.Sockets <= 0 || m.CoresPerSocket <= 0 || m.ThreadsPerCore <= 0 {
		return fmt.Errorf("topology: %s: non-positive dimensions %d/%d/%d",
			m.Name, m.Sockets, m.CoresPerSocket, m.ThreadsPerCore)
	}
	if len(m.Caches) == 0 {
		return fmt.Errorf("topology: %s: no cache levels", m.Name)
	}
	if m.SocketIDs != nil {
		if len(m.SocketIDs) != m.Sockets {
			return fmt.Errorf("topology: %s: %d socket ids for %d sockets", m.Name, len(m.SocketIDs), m.Sockets)
		}
		for i := 1; i < len(m.SocketIDs); i++ {
			if m.SocketIDs[i] <= m.SocketIDs[i-1] {
				return fmt.Errorf("topology: %s: socket ids must strictly ascend, got %v", m.Name, m.SocketIDs)
			}
		}
	}
	prev := 0
	for _, c := range m.Caches {
		if c.Level <= prev {
			return fmt.Errorf("topology: %s: cache levels must ascend, got L%d after L%d", m.Name, c.Level, prev)
		}
		if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0 {
			return fmt.Errorf("topology: %s: invalid L%d geometry", m.Name, c.Level)
		}
		prev = c.Level
	}
	return nil
}

// String summarizes the machine.
func (m *Machine) String() string {
	return fmt.Sprintf("%s: %d socket(s) x %d core(s) x %d thread(s) = %d logical CPUs",
		m.Name, m.Sockets, m.CoresPerSocket, m.ThreadsPerCore, m.NumCPUs())
}
