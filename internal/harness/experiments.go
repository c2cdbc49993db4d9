package harness

import (
	"fmt"

	"ramr/internal/container"
	"ramr/internal/core"
	"ramr/internal/mr"
	"ramr/internal/perfmodel"
	"ramr/internal/simarch"
	"ramr/internal/topology"
	"ramr/internal/workloads"
)

// suite is the app order used across all figures.
var suite = []string{"HG", "KM", "LR", "MM", "PCA", "WC"}

// platformDef couples a topology preset with its full thread count and the
// tuned default batch size (§IV-C: Haswell profits from ~1000-element
// batches, the Phi from smaller ones).
type platformDef struct {
	name    string
	machine func() *topology.Machine
	threads int
	batch   int
}

var (
	hwl = platformDef{"HWL", topology.HaswellServer, 56, 1000}
	phi = platformDef{"PHI", topology.XeonPhi, 228, 200}
)

// containerFor returns each app's container in the default or
// memory-stressed configuration (§IV-D).
func containerFor(app string, stress bool) container.Kind {
	if stress {
		return workloads.StressContainer(app)
	}
	return workloads.DefaultContainer(app)
}

// ratios is the mapper/combiner ratio search space for auto-tuning; the
// paper tunes the ratio per application ("driven by the throughput of the
// map and combine functions").
var ratios = []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}

// bestRAMRSim simulates RAMR across the ratio space and returns the best
// estimate plus the winning ratio.
func bestRAMRSim(m *topology.Machine, w simarch.Workload, threads int, pin mr.PinPolicy, batch int) (simarch.Estimate, int, error) {
	var best simarch.Estimate
	bestR := 0
	for _, r := range ratios {
		mappers, combiners := mr.SplitWorkers(threads, r)
		cfg := simarch.Config{Mappers: mappers, Combiners: combiners, Pin: pin, BatchSize: batch, QueueCap: 5000}
		est, err := simarch.SimulateRAMR(m, w, cfg)
		if err != nil {
			return simarch.Estimate{}, 0, err
		}
		if bestR == 0 || est.Cycles < best.Cycles {
			best, bestR = est, r
		}
	}
	return best, bestR, nil
}

func init() {
	register(Experiment{ID: "table1", Title: "Input sizes used in the experimental evaluation (Table I)", Run: runTable1})
	register(Experiment{ID: "fig3", Title: "Communication-aware pinning policy remap (Fig. 3)", Run: runFig3})
	register(Experiment{ID: "fig5", Title: "Pinning policy speedup vs round-robin and OS scheduler, Haswell (Fig. 5)", Run: runFig5})
	register(Experiment{ID: "fig6", Title: "Batched consume speedup over batch=1 (Fig. 6)", Run: runFig6})
	register(Experiment{ID: "fig7", Title: "Batch size sensitivity, normalized run time (Fig. 7)", Run: runFig7})
	register(Experiment{ID: "fig8a", Title: "RAMR vs Phoenix++ speedup, Haswell, default containers (Fig. 8a)", Run: simSpeedups(hwl, false)})
	register(Experiment{ID: "fig8b", Title: "RAMR vs Phoenix++ speedup, Haswell, memory-intensive containers (Fig. 8b)", Run: simSpeedups(hwl, true)})
	register(Experiment{ID: "fig9a", Title: "RAMR vs Phoenix++ speedup, Xeon Phi, default containers (Fig. 9a)", Run: simSpeedups(phi, false)})
	register(Experiment{ID: "fig9b", Title: "RAMR vs Phoenix++ speedup, Xeon Phi, memory-intensive containers (Fig. 9b)", Run: simSpeedups(phi, true)})
	register(Experiment{ID: "fig10a", Title: "Suitability metrics IPB/MSPI/RSPI, default containers (Fig. 10a)", Run: suitability(false)})
	register(Experiment{ID: "fig10b", Title: "Suitability metrics IPB/MSPI/RSPI, memory-intensive containers (Fig. 10b)", Run: suitability(true)})
}

// runTable1 prints the paper's input-size grid alongside the scaled
// parameters this reproduction generates.
func runTable1(Options) (*Report, error) {
	rep := &Report{
		ID:      "table1",
		Title:   "Input sizes (paper -> scaled reproduction parameters)",
		Columns: []string{},
		Notes: []string{
			"paper sizes kept proportionally: every Large/Small ratio within a row is preserved",
			"scaled values are the generator parameters used by the native experiments",
		},
	}
	for _, p := range []workloads.Platform{workloads.HWL, workloads.PHI} {
		for _, c := range workloads.SizeClasses() {
			for _, in := range workloads.Inputs(p, c) {
				label := fmt.Sprintf("%s/%s/%s", in.App, p, c)
				rep.Notes = append(rep.Notes,
					fmt.Sprintf("%-14s paper=%-8s scaled=%s", label, in.Paper, paramString(in.App, in.Params)))
			}
		}
	}
	return rep, nil
}

func paramString(app string, pr workloads.Params) string {
	switch app {
	case "WC", "HG":
		return fmt.Sprintf("%d bytes", pr.Bytes)
	case "LR":
		return fmt.Sprintf("%d points", pr.Points)
	case "KM":
		return fmt.Sprintf("%d points x %d dims, k=%d", pr.Points, pr.Dims, pr.K)
	case "PCA":
		return fmt.Sprintf("%dx%d matrix", pr.N, pr.N)
	case "MM":
		return fmt.Sprintf("(%dx%d)x(%dx%d)", pr.RowsA, pr.Inner, pr.Inner, pr.ColsB)
	default:
		return "?"
	}
}

// runFig3 prints the thridtocpu remap and resulting mapper/combiner pairs
// on the paper's example machine.
func runFig3(Options) (*Report, error) {
	m := topology.Fig3Example()
	rep := &Report{
		ID:    "fig3",
		Title: "thridtocpu remap on 2 nodes x 4 cores x 2-way SMT",
	}
	order := m.CompactOrder()
	rep.Notes = append(rep.Notes, fmt.Sprintf("compact order (thread t -> cpu): %v", order))
	plan := core.BuildPlan(m, 8, 8, mr.PinRAMR)
	rep.Notes = append(rep.Notes, "1:1 ratio plan (combiner j with mapper j on one physical core):")
	for j := 0; j < 8; j++ {
		d := m.Distance(plan.CombinerCPU[j], plan.MapperCPU[j])
		rep.Notes = append(rep.Notes, fmt.Sprintf("  pair %d: combiner cpu %d + mapper cpu %d (distance %d, shared L%d)",
			j, plan.CombinerCPU[j], plan.MapperCPU[j], d, m.SharedCacheLevel(plan.CombinerCPU[j], plan.MapperCPU[j])))
	}
	return rep, nil
}

// runFig5 compares the three pinning policies on the Haswell model with
// default containers, reporting execution-time speedup of the RAMR policy.
func runFig5(Options) (*Report, error) {
	m := hwl.machine()
	rep := &Report{
		ID:      "fig5",
		Title:   "RAMR pinning speedup on Haswell (higher is better)",
		Columns: []string{"vs round-robin", "vs os-default"},
		Notes: []string{
			"paper: RAMR policy averages 2.28x vs RR and 2.04x vs the Linux scheduler;",
			"light apps (HG, LR) are the most communication-sensitive",
			"Xeon Phi equivalent: ring-shared L2 makes every placement near-equidistant (1-3% in the paper)",
		},
	}
	half := hwl.threads / 2
	for _, app := range suite {
		w, err := simarch.WorkloadFor(m, app, containerFor(app, false))
		if err != nil {
			return nil, err
		}
		times := map[mr.PinPolicy]float64{}
		for _, pin := range []mr.PinPolicy{mr.PinRAMR, mr.PinRoundRobin, mr.PinNone} {
			est, err := simarch.SimulateRAMR(m, w, simarch.Config{
				Mappers: half, Combiners: half, Pin: pin, BatchSize: hwl.batch, QueueCap: 5000,
			})
			if err != nil {
				return nil, err
			}
			times[pin] = est.Cycles
		}
		rep.Rows = append(rep.Rows, Row{Label: app, Values: []float64{
			times[mr.PinRoundRobin] / times[mr.PinRAMR],
			times[mr.PinNone] / times[mr.PinRAMR],
		}})
	}
	return rep, nil
}

// runFig6 reports the batched-consume speedup (tuned batch vs batch=1) on
// both platform models.
func runFig6(Options) (*Report, error) {
	rep := &Report{
		ID:      "fig6",
		Title:   "Batched consume speedup over single-element consume",
		Columns: []string{"HWL", "PHI"},
		Notes: []string{
			"paper: up to 3.1x on Haswell and 11.4x on Xeon Phi;",
			"the in-order Phi core cannot hide per-consume bookkeeping, so batching buys more there",
		},
	}
	for _, app := range suite {
		var vals []float64
		for _, p := range []platformDef{hwl, phi} {
			m := p.machine()
			w, err := simarch.WorkloadFor(m, app, containerFor(app, false))
			if err != nil {
				return nil, err
			}
			half := p.threads / 2
			base := simarch.Config{Mappers: half, Combiners: half, Pin: mr.PinRAMR, QueueCap: 5000}
			cfg1 := base
			cfg1.BatchSize = 1
			one, err := simarch.SimulateRAMR(m, w, cfg1)
			if err != nil {
				return nil, err
			}
			cfgB := base
			cfgB.BatchSize = p.batch
			tuned, err := simarch.SimulateRAMR(m, w, cfgB)
			if err != nil {
				return nil, err
			}
			vals = append(vals, one.Cycles/tuned.Cycles)
		}
		rep.Rows = append(rep.Rows, Row{Label: app, Values: vals})
	}
	return rep, nil
}

// fig7Batches is the sweep grid of Fig. 7.
var fig7Batches = []int{1, 5, 20, 100, 500, 1000, 2000, 5000}

// runFig7 sweeps the batch size per app per platform, normalizing each
// curve to its first point as the paper plots it.
func runFig7(Options) (*Report, error) {
	rep := &Report{
		ID:    "fig7",
		Title: "Batch-size sensitivity (run time normalized to batch=1)",
		Notes: []string{
			"paper: Haswell apps profit up to ~1000-element batches;",
			"Xeon Phi prefers smaller batches (20-500) due to its much smaller per-thread cache share",
		},
	}
	for _, b := range fig7Batches {
		rep.Columns = append(rep.Columns, fmt.Sprintf("b=%d", b))
	}
	for _, p := range []platformDef{hwl, phi} {
		m := p.machine()
		half := p.threads / 2
		for _, app := range suite {
			w, err := simarch.WorkloadFor(m, app, containerFor(app, false))
			if err != nil {
				return nil, err
			}
			var vals []float64
			var base float64
			for i, b := range fig7Batches {
				est, err := simarch.SimulateRAMR(m, w, simarch.Config{
					Mappers: half, Combiners: half, Pin: mr.PinRAMR, BatchSize: b, QueueCap: 5000,
				})
				if err != nil {
					return nil, err
				}
				if i == 0 {
					base = est.Cycles
				}
				vals = append(vals, est.Cycles/base)
			}
			rep.Rows = append(rep.Rows, Row{Label: p.name + "/" + app, Values: vals})
		}
	}
	return rep, nil
}

// simSpeedups builds the Fig. 8/9 experiment: RAMR vs Phoenix++ speedup
// per app for the three Table I input flavors on one platform model.
func simSpeedups(p platformDef, stress bool) func(Options) (*Report, error) {
	return func(Options) (*Report, error) {
		m := p.machine()
		rep := &Report{
			Columns: []string{"Small", "Medium", "Large", "best-ratio"},
			Notes: []string{
				"speedup = Phoenix++ time / RAMR time (per-app auto-tuned mapper/combiner ratio)",
			},
		}
		if stress {
			rep.Notes = append(rep.Notes,
				"memory-intensive containers: fixed-size hash for HG/KM/LR/WC, regular hash for MM/PCA")
		}
		// Input flavors scale the element volume; the per-element costs
		// are size-independent in the model.
		sizeScale := map[string]float64{"Small": 0.25, "Medium": 0.5, "Large": 1}
		for _, app := range suite {
			w, err := simarch.WorkloadFor(m, app, containerFor(app, stress))
			if err != nil {
				return nil, err
			}
			var vals []float64
			var lastRatio int
			for _, size := range []string{"Small", "Medium", "Large"} {
				ws := w
				ws.Elements = int(float64(w.Elements) * sizeScale[size])
				ra, r, err := bestRAMRSim(m, ws, p.threads, mr.PinRAMR, p.batch)
				if err != nil {
					return nil, err
				}
				lastRatio = r
				half := p.threads / 2
				ph, err := simarch.SimulatePhoenix(m, ws, simarch.Config{Mappers: half, Combiners: p.threads - half})
				if err != nil {
					return nil, err
				}
				vals = append(vals, ph.Cycles/ra.Cycles)
			}
			vals = append(vals, float64(lastRatio))
			rep.Rows = append(rep.Rows, Row{Label: app, Values: vals})
		}
		return rep, nil
	}
}

// suitability builds the Fig. 10 experiment: the three metrics per app.
func suitability(stress bool) func(Options) (*Report, error) {
	return func(Options) (*Report, error) {
		m := hwl.machine()
		rep := &Report{
			Columns: []string{"IPB", "MSPI", "RSPI"},
			Notes: []string{
				"metrics concern the map/combine phase only and are meaningful comparatively (paper §IV-E)",
			},
		}
		for _, app := range suite {
			kind := containerFor(app, stress)
			mt, err := perfmodel.Suitability(m, app, kind)
			if err != nil {
				return nil, err
			}
			rep.Rows = append(rep.Rows, Row{
				Label:  fmt.Sprintf("%s(%s)", app, kind),
				Values: []float64{mt.IPB, mt.MSPI, mt.RSPI},
			})
		}
		return rep, nil
	}
}
