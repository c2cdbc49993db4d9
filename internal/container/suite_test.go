package container_test

import (
	"testing"

	"ramr/internal/container"
	"ramr/internal/mr"
	"ramr/internal/workloads"
)

// checkLandsHome folds every pair spec's map emits over its splits into one
// container of spec's fixed-hash factory, as one fused worker would, and
// requires at most 1.05 probes per steady-state update of the keys it holds.
func checkLandsHome[S any, V, R any](t *testing.T, spec *mr.Spec[S, int, V, R]) {
	t.Helper()
	h, ok := spec.NewContainer().(*container.Hash[int, V])
	if !ok {
		t.Fatalf("%s: the factory builds no fixed-hash container", spec.Name)
	}
	var n uint64
	fold := h.Fold(spec.Combine, &n)
	for _, s := range spec.Splits {
		spec.Map(s, fold)
	}
	probes := container.ProbesPerUpdate(h)
	t.Logf("%s: %d pairs into %d keys, %.3f probes per steady-state update", spec.Name, n, h.Len(), probes)
	if probes > 1.05 {
		t.Errorf("%s at HWL-Large: %.3f probes per steady-state update, want <= 1.05", spec.Name, probes)
	}
}

// TestSuiteKeysLandHome: at HWL-Large every int key set a suite app folds
// into its fixed-hash container — HG's 768 buckets, LR's 5 sums, KM's
// cluster sums, PCA's upper triangle, MM's cells — sits on its home slots.
// The identity HashInt leaves the spreading to the table's Fibonacci slots;
// the splitmix64 mix it replaced put HG's keys at 1.31 probes.
func TestSuiteKeysLandHome(t *testing.T) {
	params := func(app string) workloads.Params {
		in, err := workloads.Input(app, workloads.HWL, workloads.Large)
		if err != nil {
			t.Fatal(err)
		}
		return in.Params
	}
	const seed, fh = 1, container.KindFixedHash
	hg, lr, km, pca, mm := params("HG"), params("LR"), params("KM"), params("PCA"), params("MM")
	checkLandsHome(t, workloads.HistogramSpec(workloads.GeneratePixels(hg.Bytes, seed), fh))
	checkLandsHome(t, workloads.LinRegSpec(workloads.GenerateLRPoints(lr.Points, seed), fh))
	checkLandsHome(t, workloads.KMeansSpec(workloads.GenerateKMeans(km.Points, km.Dims, km.K, seed), fh))
	checkLandsHome(t, workloads.PCASpec(workloads.GeneratePCA(pca.N, seed), fh))
	checkLandsHome(t, workloads.MatMulSpec(workloads.GenerateMM(mm.RowsA, mm.Inner, mm.ColsB, seed), fh))
}
