package core

import (
	"testing"

	"ramr/internal/mr"
	"ramr/internal/topology"
	"ramr/internal/tuner"
)

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

// TestGrantCapsElasticCeiling: a CPU grant is a hard worker budget — the
// tuner's elastic combiner pool may never grow past grant size minus the
// mappers, even when a scripted schedule asks for more. The cap must be
// visible in the decision log the run attaches.
func TestGrantCapsElasticCeiling(t *testing.T) {
	spec := countSpec(48, 100, 17)
	cfg := testConfig() // Mappers 3, Flat(4) machine
	cfg.CPUGrant = []int{0, 1, 2, 3}
	cfg.Tuner = &tuner.Config{
		EpochTicks: 1,
		// The schedule keeps asking for 3 combiners; the grant leaves
		// room for exactly len(grant) - mappers = 1.
		Schedule: []int{3, 3, 3, 3},
	}
	res, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range res.Pairs {
		total += p.Value
	}
	if total != 48*100 {
		t.Fatalf("total = %d, want %d", total, 48*100)
	}
	if res.TunerReport == nil {
		t.Fatal("tuned run attached no TunerReport")
	}
	ceil := len(cfg.CPUGrant) - cfg.Mappers
	if got := res.TunerReport.Final.Combiners; got > ceil {
		t.Fatalf("final combiners = %d, exceeds grant ceiling %d", got, ceil)
	}
	for _, d := range res.TunerReport.Epochs {
		if d.Settings.Combiners > ceil {
			t.Fatalf("epoch %d ran %d combiners, exceeds grant ceiling %d",
				d.Epoch, d.Settings.Combiners, ceil)
		}
	}
}
