package core

import (
	"testing"
	"time"

	"ramr/internal/container"
	"ramr/internal/mr"
	"ramr/internal/telemetry"
	"ramr/internal/topology"
)

// skewedSpec is a map-heavy job whose first `heavy` splits each sleep,
// modelling a skewed input: with TaskSize 1 those splits are exactly the
// tasks seeded to locality group 0, so group 1's mappers drain their
// light share and must steal across the group boundary to finish.
func skewedSpec(splits, heavy int, d time.Duration) *mr.Spec[int, int, int, int] {
	in := make([]int, splits)
	for i := range in {
		in[i] = i
	}
	return &mr.Spec[int, int, int, int]{
		Name:   "skewed",
		Splits: in,
		Map: func(s int, emit func(int, int)) {
			if s < heavy {
				time.Sleep(d)
			}
			emit(s%16, 1)
		},
		Combine:      func(a, b int) int { return a + b },
		Reduce:       mr.IdentityReduce[int, int](),
		NewContainer: func() container.Container[int, int] { return container.NewFixedArray[int](16) },
		Less:         func(a, b int) bool { return a < b },
	}
}

func stealCfg(m *topology.Machine) mr.Config {
	cfg := mr.DefaultConfig()
	cfg.Mappers = 4
	cfg.Combiners = 2
	cfg.QueueCapacity = 256
	cfg.BatchSize = 16
	cfg.TaskSize = 1
	cfg.Machine = m
	cfg.Pin = mr.PinNone // mapper i lands in group i % groups
	return cfg
}

// runSkewed executes the skewed job on both placement arms — the fused pool
// that ships nothing, and, on a machine with SMT, the pipeline on a sibling
// plan spanning its sockets (parked) — and checks the conservation
// invariants every successful run must satisfy: no element lost or
// duplicated, steal counters balanced exactly (tasks stolen == tasks
// executed remotely), every task taken exactly once by a worker that booked
// the take, and every pair either folded where it was emitted or shipped,
// as the arm says. It returns each arm's steal stats.
func runSkewed(t *testing.T, m *topology.Machine) []mr.StealStats {
	t.Helper()
	const splits, heavy = 120, 30
	var stats []mr.StealStats
	cfgs := []mr.Config{stealCfg(m)}
	if m.ThreadsPerCore > 1 {
		cfgs = append(cfgs, parked(stealCfg(m)))
	}
	for _, cfg := range cfgs {
		cfg.Telemetry = telemetry.New()
		res, err := Run(skewedSpec(splits, heavy, 500*time.Microsecond), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := sumValues(res.Pairs); got != splits {
			t.Fatalf("conservation: %d elements out, want %d", got, splits)
		}
		if !res.Steal.Balanced() {
			t.Fatalf("steal counters unbalanced: %s", res.Steal.String())
		}
		if got := res.Steal.TotalTasks(); got != splits {
			t.Fatalf("take accounting covers %d tasks, want %d", got, splits)
		}
		conserved(t, res, splits)
		if fused := cfg.Pin == mr.PinNone; fused != (res.QueueStats == mr.QueueStats{}) {
			t.Fatalf("fused=%v: queue stats %+v", fused, res.QueueStats)
		}
		stats = append(stats, res.Steal)
	}
	return stats
}

// TestStealConservationSkewed: under the race detector, chunked stealing
// on a two-group machine moves work without losing or duplicating a
// task, and the skewed input actually provokes steals (a run where
// nothing was stolen would make the balance assertion vacuous).
func TestStealConservationSkewed(t *testing.T) {
	for _, st := range runSkewed(t, topology.Fig3Example()) {
		if st.StolenTasks() == 0 {
			t.Fatalf("skewed input provoked no steals: %s", st.String())
		}
		// Fig3Example has per-socket LLCs, so every cross-group steal is
		// remote-class.
		if st.SocketTasks != 0 {
			t.Fatalf("per-socket-LLC machine produced socket-class steals: %s", st.String())
		}
	}
}

// TestStealClassByTopology: the distance class of every steal follows
// the machine's cache hierarchy — remote across the Haswell server's
// per-socket L3s, socket-class on a Phi-style machine whose last-level
// cache is globally shared, and no steals at all on the single-group
// Xeon Phi preset (its one locality group has no victims).
func TestStealClassByTopology(t *testing.T) {
	t.Run("haswell", func(t *testing.T) {
		for _, st := range runSkewed(t, topology.HaswellServer()) {
			if st.StolenTasks() == 0 {
				t.Fatalf("no steals on the Haswell server: %s", st.String())
			}
			if st.SocketTasks != 0 {
				t.Fatalf("cross-socket steals misclassified as socket-class: %s", st.String())
			}
		}
	})
	t.Run("phi-style-global-llc", func(t *testing.T) {
		// Two packages sharing a global LLC, like the Phi's ring of L2s:
		// stealing across them stays socket-class.
		m := &topology.Machine{
			Name:           "phi-style",
			Sockets:        2,
			CoresPerSocket: 4,
			ThreadsPerCore: 1,
			Enum:           topology.EnumCompact,
			Caches: []topology.CacheLevel{
				{Level: 1, SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8, Scope: topology.ScopePerCore, LatencyCycles: 4},
				{Level: 2, SizeBytes: 28 << 20, LineBytes: 64, Assoc: 8, Scope: topology.ScopeGlobal, LatencyCycles: 24},
			},
			MemLatencyCycles: 300,
		}
		for _, st := range runSkewed(t, m) {
			if st.StolenTasks() == 0 {
				t.Fatalf("no steals on the global-LLC machine: %s", st.String())
			}
			if st.RemoteTasks != 0 {
				t.Fatalf("global-LLC steals misclassified as remote: %s", st.String())
			}
		}
	})
	t.Run("xeon-phi", func(t *testing.T) {
		// One package, one locality group: everything is a local take.
		for _, st := range runSkewed(t, topology.XeonPhi()) {
			if st.StolenTasks() != 0 || st.RemoteExecuted != 0 {
				t.Fatalf("single-group machine stole: %s", st.String())
			}
		}
	})
}

// TestStealOffStaysStatic: with the steal policy off, the same skewed
// input finishes with zero steals — the static steering baseline the
// BenchmarkSkewSteal sweep compares against. On a conserving run the
// combine workers take tasks too, each from its own group's deque
// (TestTaskQueuesSingleTakes pins that it cannot reach another's), so on
// both placement arms the local takes alone cover the job.
func TestStealOffStaysStatic(t *testing.T) {
	const splits, heavy = 120, 30
	cfg := stealCfg(topology.Fig3Example())
	cfg.Steal = mr.StealOff
	for _, cfg := range []mr.Config{cfg, parked(cfg)} {
		cfg.Telemetry = telemetry.New()
		res, err := Run(skewedSpec(splits, heavy, 100*time.Microsecond), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := sumValues(res.Pairs); got != splits {
			t.Fatalf("conservation: %d elements out, want %d", got, splits)
		}
		if res.Steal.StolenTasks() != 0 || res.Steal.RemoteExecuted != 0 {
			t.Fatalf("StealOff run stole: %s", res.Steal.String())
		}
		if got := res.Steal.LocalTasks; got != splits {
			t.Fatalf("StealOff local takes cover %d tasks, want %d", got, splits)
		}
		conserved(t, res, splits)
	}
}
