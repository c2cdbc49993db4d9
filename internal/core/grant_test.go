package core

import (
	"testing"

	"ramr/internal/mr"
	"ramr/internal/topology"
)

// TestConservesWork is the grant rule: a granted run conserves work when
// its grant has a CPU per worker, and a library run (no grant) always does,
// however few CPUs the machine has for its workers: it owns the machine and
// has nobody to yield to.
func TestConservesWork(t *testing.T) {
	for _, tc := range []struct {
		grant   []int
		workers int
		want    bool
	}{
		{nil, 2, true},
		{nil, 64, true}, // more workers than any test host has CPUs
		{[]int{0}, 2, false},
		{[]int{0, 1}, 2, true},
		{[]int{0, 1, 2}, 4, false},
		{[]int{0, 1, 2, 3, 4}, 4, true},
	} {
		if got := ConservesWork(tc.grant, tc.workers); got != tc.want {
			t.Errorf("ConservesWork(%v, %d) = %v, want %v", tc.grant, tc.workers, got, tc.want)
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
