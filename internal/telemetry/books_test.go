package telemetry_test

import (
	"context"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"ramr/internal/core"
	"ramr/internal/mr"
	"ramr/internal/stream"
	"ramr/internal/telemetry"
	"ramr/internal/topology"
)

// globalLLC is a two-node machine with 2-way SMT whose last-level cache
// spans both nodes, so a steal between its groups is a socket steal, where
// on the Haswell preset it is a remote one.
func globalLLC() *topology.Machine {
	return &topology.Machine{
		Name:           "global-llc-smt",
		Sockets:        2,
		CoresPerSocket: 2,
		ThreadsPerCore: 2,
		Enum:           topology.EnumSMTLast,
		Caches: []topology.CacheLevel{
			{Level: 1, SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8, Scope: topology.ScopePerCore, LatencyCycles: 4},
			{Level: 2, SizeBytes: 16 << 20, LineBytes: 64, Assoc: 16, Scope: topology.ScopeGlobal, LatencyCycles: 24},
		},
		MemLatencyCycles: 300,
	}
}

// stealingShipRun runs WordCount on a plan that ships pairs and steals
// across groups: the grant holds two cores of different nodes with their
// SMT siblings, so each node has a mapper and, on the sibling, its combiner.
// Mapper 0 stops at its first pair until the other node's mapper has drained
// its own deque and completed a task stolen from mapper 0's. Tiny rings, and
// a first consumed batch that takes 2 ms, make a producer park on a full
// ring; the held mapper's consumer polls empty; and a consume batch that
// does not divide the ring leaves a short remainder behind a drained full
// ring.
func stealingShipRun(t *testing.T, m *topology.Machine, grant []int) (*telemetry.Telemetry, *telemetry.Report) {
	spec, emits := wcSpec(400)
	cfg := testConfig()
	cfg.Machine, cfg.Pin, cfg.CPUGrant = m, mr.PinRAMR, grant
	cfg.Mappers, cfg.Combiners, cfg.TaskSize = 2, 2, 1
	cfg.QueueCapacity, cfg.EmitBatch, cfg.BatchSize = 16, 3, 5
	tel := telemetry.New()
	cfg.Telemetry = tel
	var held, slow atomic.Bool
	cfg.Hooks = &mr.Hooks{
		MapEmit: func(w int) {
			if w != 0 || !held.CompareAndSwap(false, true) {
				return
			}
			for deadline := time.Now().Add(10 * time.Second); tel.Totals().Steal.RemoteExecuted == 0 && time.Now().Before(deadline); {
				time.Sleep(100 * time.Microsecond)
			}
		},
		CombineBatch: func(int) {
			if slow.CompareAndSwap(false, true) {
				time.Sleep(2 * time.Millisecond)
			}
		},
	}
	res, err := core.Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if q := res.QueueStats; q.Pushes != emits || q.Pops != emits {
		t.Fatalf("%s: %d pairs pushed and %d popped, want all %d through the rings", m.Name, q.Pushes, q.Pops, emits)
	}
	return tel, res.Telemetry
}

// TestRowsSumToTotals: a report's rows are its books shard by shard. For a
// fused run, two shipping runs that steal across groups (remote steals on
// the Haswell preset, socket steals under a shared last-level cache) and a
// stream session, the rows add up to the report's totals and to the
// ledger's. Across the shipping runs every queue and steal counter reads
// non-zero in some row, so a counter the per-shard read leaves out shows.
func TestRowsSumToTotals(t *testing.T) {
	runs := []struct {
		name  string
		ships bool
		run   func(t *testing.T) (*telemetry.Telemetry, *telemetry.Report)
	}{
		{"fused", false, func(t *testing.T) (*telemetry.Telemetry, *telemetry.Report) {
			spec, _ := wcSpec(200)
			cfg := testConfig()
			cfg.Telemetry = telemetry.New()
			res, err := core.Run(spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return cfg.Telemetry, res.Telemetry
		}},
		{"shipping/remote", true, func(t *testing.T) (*telemetry.Telemetry, *telemetry.Report) {
			return stealingShipRun(t, topology.HaswellServer(), []int{0, 14, 28, 42})
		}},
		{"shipping/socket", true, func(t *testing.T) (*telemetry.Telemetry, *telemetry.Report) {
			return stealingShipRun(t, globalLLC(), []int{0, 2, 4, 6})
		}},
		{"stream", false, func(t *testing.T) (*telemetry.Telemetry, *telemetry.Report) {
			spec, _ := wcSpec(120)
			cfg := testConfig()
			cfg.Telemetry = telemetry.New()
			cfg.Stream = &mr.StreamSpec{Window: 1, MaxPending: len(spec.Splits)}
			p, err := stream.New(spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Start(); err != nil {
				t.Fatal(err)
			}
			for c := range 4 {
				if _, err := p.Append(stream.Chunk[string]{Ts: int64(c), Splits: spec.Splits[c*30 : (c+1)*30]}); err != nil {
					t.Fatal(err)
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			if err := p.Close(ctx); err != nil {
				t.Fatal(err)
			}
			return cfg.Telemetry, cfg.Telemetry.EndRun(nil)
		}},
	}
	nonZero := map[string]bool{}
	for _, run := range runs {
		tel, rep := run.run(t)
		ledger := telemetry.LedgerOf(tel).Totals()
		if rep.Totals != ledger {
			t.Fatalf("%s: report totals %+v, ledger totals %+v", run.name, rep.Totals, ledger)
		}
		var sum telemetry.Totals
		for _, w := range rep.Workers {
			sum.Add(w.Totals)
			if run.ships {
				markNonZero(nonZero, "Queue", reflect.ValueOf(w.Queue))
				markNonZero(nonZero, "Steal", reflect.ValueOf(w.Steal))
			}
		}
		if sum != rep.Totals {
			t.Fatalf("%s: %d rows add up to %+v, the report's totals are %+v", run.name, len(rep.Workers), sum, rep.Totals)
		}
	}
	var zero []string
	for _, sec := range []struct {
		name string
		v    any
	}{{"Queue", telemetry.Totals{}.Queue}, {"Steal", telemetry.Totals{}.Steal}} {
		typ := reflect.TypeOf(sec.v)
		for i := range typ.NumField() {
			if name := sec.name + "." + typ.Field(i).Name; !nonZero[name] {
				zero = append(zero, name)
			}
		}
	}
	sort.Strings(zero)
	if len(zero) > 0 {
		t.Fatalf("counters that read zero in every row of the shipping runs: %v", zero)
	}
}

// markNonZero records, as section.Field, each counter of a row's section
// that is not zero.
func markNonZero(seen map[string]bool, section string, v reflect.Value) {
	for i := range v.NumField() {
		if v.Field(i).Uint() != 0 {
			seen[section+"."+v.Type().Field(i).Name] = true
		}
	}
}
