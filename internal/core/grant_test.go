package core

import (
	"slices"
	"testing"

	"ramr/internal/mr"
	"ramr/internal/topology"
)

// TestShipsPairs is the placement rule: a plan ships pairs only when it puts
// some combiner on an SMT sibling of a mapper it consumes. A machine without
// SMT, an unpinned plan, a one-CPU grant and a grant of distinct cores never
// ship; the paper's pinning on either SMT preset, or on a sibling grant, does.
// Round-robin pinning ships on the compact-numbered Phi, where consecutive
// ids are siblings, and not on the SMT-last Haswell server, where they are
// distinct cores.
func TestShipsPairs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		m     *topology.Machine
		grant []int
		pin   mr.PinPolicy
		want  bool
	}{
		{"flat/ramr", topology.Flat(8), nil, mr.PinRAMR, false},
		{"flat/round-robin", topology.Flat(8), nil, mr.PinRoundRobin, false},
		{"haswell/ramr", topology.HaswellServer(), nil, mr.PinRAMR, true},
		{"haswell/round-robin", topology.HaswellServer(), nil, mr.PinRoundRobin, false},
		{"haswell/none", topology.HaswellServer(), nil, mr.PinNone, false},
		{"phi/ramr", topology.XeonPhi(), nil, mr.PinRAMR, true},
		{"phi/round-robin", topology.XeonPhi(), nil, mr.PinRoundRobin, true},
		{"phi/none", topology.XeonPhi(), nil, mr.PinNone, false},
		{"haswell/one-cpu", topology.HaswellServer(), []int{0}, mr.PinRAMR, false},
		{"phi/one-cpu", topology.XeonPhi(), []int{5}, mr.PinRAMR, false},
		{"haswell/sibling-grant", topology.HaswellServer(), []int{0, 28}, mr.PinRAMR, true},
		{"haswell/same-socket-grant", topology.HaswellServer(), []int{0, 1}, mr.PinRAMR, false},
		{"haswell/same-socket-grant/round-robin", topology.HaswellServer(), []int{0, 1, 2, 3}, mr.PinRoundRobin, false},
	} {
		plan := BuildPlanOn(tc.m, tc.grant, 2, 2, tc.pin)
		if got := plan.ShipsPairs(tc.m); got != tc.want {
			t.Errorf("%s: ShipsPairs = %v, want %v\n%s", tc.name, got, tc.want, plan)
		}
	}
}

// TestFusedPool is the width rule: a fused pool has a worker per mapper and
// combiner, but never more than its grant has CPUs, and a pool cut to its
// grant pins each granted CPU once.
func TestFusedPool(t *testing.T) {
	m := topology.Flat(8)
	for _, tc := range []struct {
		grant []int
		pin   mr.PinPolicy
		want  []int
	}{
		{nil, mr.PinRAMR, []int{1, 2, 4, 5, 0, 3}},
		{nil, mr.PinNone, []int{-1, -1, -1, -1, -1, -1}},
		{[]int{3}, mr.PinRAMR, []int{3}},
		{[]int{3}, mr.PinNone, []int{-1}},
		{[]int{2, 5, 6}, mr.PinRAMR, []int{5, 6, 2}},
		{[]int{2, 5, 6}, mr.PinRoundRobin, []int{5, 6, 2}},
		{[]int{0, 1, 2, 3, 4, 5, 6, 7}, mr.PinRAMR, []int{1, 2, 4, 5, 0, 3}},
	} {
		got := BuildPlanOn(m, tc.grant, 4, 2, tc.pin).FusedPool(tc.grant)
		if !slices.Equal(got, tc.want) {
			t.Errorf("grant %v, %s: FusedPool = %v, want %v", tc.grant, tc.pin, got, tc.want)
		}
	}
}

// TestBuildPlanOnStaysInGrant: under every pinning policy, a granted plan
// never places a thread outside the grant — the property the multi-job
// scheduler relies on for isolation between concurrent jobs.
func TestBuildPlanOnStaysInGrant(t *testing.T) {
	m := topology.HaswellServer()
	grant := []int{0, 28, 1, 29, 2, 30} // three cores with SMT siblings
	set := map[int]bool{}
	for _, cpu := range grant {
		set[cpu] = true
	}
	for _, policy := range []mr.PinPolicy{mr.PinRAMR, mr.PinRoundRobin} {
		plan := BuildPlanOn(m, grant, 4, 2, policy)
		for _, cpu := range append(append([]int{}, plan.MapperCPU...), plan.CombinerCPU...) {
			if !set[cpu] {
				t.Fatalf("%s: plan placed a thread on cpu %d outside grant %v", policy, cpu, grant)
			}
		}
	}
}

// TestBuildPlanOnKeepsLocalityInsideGrant: the contention-aware layout
// survives the grant filter — with a grant of whole physical cores, each
// combiner still shares a core (distance <= 1) with its first mapper.
func TestBuildPlanOnKeepsLocalityInsideGrant(t *testing.T) {
	m := topology.HaswellServer()
	// Four physical cores of socket 0, both SMT threads each.
	grant := []int{0, 28, 1, 29, 2, 30, 3, 31}
	plan := BuildPlanOn(m, grant, 4, 4, mr.PinRAMR)
	for j, rng := range QueueAssignment(4, 4) {
		if d := m.Distance(plan.CombinerCPU[j], plan.MapperCPU[rng[0]]); d > 1 {
			t.Fatalf("combiner %d at distance %d from its mapper inside grant", j, d)
		}
	}
}

// TestBuildPlanOnForeignGrantUnpinned: a grant naming no CPU of this
// machine degrades to an unpinned plan instead of wrapping modulo zero.
func TestBuildPlanOnForeignGrantUnpinned(t *testing.T) {
	m := topology.Flat(4)
	plan := BuildPlanOn(m, []int{100, 101}, 2, 1, mr.PinRAMR)
	for _, cpu := range append(append([]int{}, plan.MapperCPU...), plan.CombinerCPU...) {
		if cpu != -1 {
			t.Fatalf("foreign grant produced pinned cpu %d", cpu)
		}
	}
}
