package ramr_test

import (
	"math"
	"strings"
	"testing"

	"ramr"
	"ramr/internal/harness"
	"ramr/internal/workloads"
)

// TestNativeExperimentsQuick exercises the native harness experiments
// end-to-end (the full suite through both engines on this host).
func TestNativeExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("native suite run is slow; skipped with -short")
	}
	for _, id := range []string{"native8a", "native8b"} {
		exp, err := harness.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := exp.Run(harness.Options{Seed: 1, Quick: true, Runs: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Rows) != 6 {
			t.Fatalf("%s: %d rows", id, len(rep.Rows))
		}
		for _, row := range rep.Rows {
			if row.Values[0] <= 0 {
				t.Fatalf("%s: %s has non-positive speedup", id, row.Label)
			}
		}
	}
}

// TestFullPipelineKnobMatrix runs one real app through the public API
// across the knob matrix, validating output stability and the pair books:
// whatever the ring geometry sends through a ring or folds in place, the
// two add up to the same emitted total, and every ring gives back what it
// took.
func TestFullPipelineKnobMatrix(t *testing.T) {
	job, err := workloads.NewJobParams("HG", workloads.Params{Bytes: 60_000}, workloads.DefaultContainer("HG"), 3)
	if err != nil {
		t.Fatal(err)
	}
	var digest, emitted uint64
	for _, batch := range []int{1, 100, 5000} {
		for _, qcap := range []int{64, 5000} {
			cfg := ramr.DefaultConfig()
			cfg.Mappers = 2
			cfg.Combiners = 2
			cfg.BatchSize = batch
			cfg.QueueCapacity = qcap
			info, err := job.Run(workloads.EngineRAMR, cfg)
			if err != nil {
				t.Fatalf("batch=%d cap=%d: %v", batch, qcap, err)
			}
			if digest == 0 {
				digest, emitted = info.Digest, info.Queue.Pushes+info.Help.Pairs()
			} else if info.Digest != digest {
				t.Fatalf("batch=%d cap=%d changes the result", batch, qcap)
			}
			if q := info.Queue; q.Pushes != q.Pops || q.Pushes+info.Help.Pairs() != emitted {
				t.Fatalf("batch=%d cap=%d: %d pushed, %d popped, %d folded in place; want %d emitted",
					batch, qcap, q.Pushes, q.Pops, info.Help.Pairs(), emitted)
			}
		}
	}
}

// TestPublicAPIFloatJob runs a float-valued job (KMeans-style) through
// both public engines and compares approximately.
func TestPublicAPIFloatJob(t *testing.T) {
	splits := [][2]int{}
	const n = 4000
	for lo := 0; lo < n; lo += 250 {
		splits = append(splits, [2]int{lo, lo + 250})
	}
	spec := &ramr.Spec[[2]int, int, float64, float64]{
		Name:   "float-sum",
		Splits: splits,
		Map: func(r [2]int, emit func(int, float64)) {
			for i := r[0]; i < r[1]; i++ {
				emit(i%7, float64(i)*0.5)
			}
		},
		Combine:      func(a, b float64) float64 { return a + b },
		Reduce:       ramr.IdentityReduce[int, float64](),
		NewContainer: ramr.FixedArrayFactory[float64](7),
		Less:         func(a, b int) bool { return a < b },
	}
	cfg := ramr.DefaultConfig()
	cfg.Mappers = 2
	cfg.Combiners = 2
	ra, err := ramr.Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := ramr.RunPhoenix(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ra.Pairs {
		a, b := ra.Pairs[i].Value, ph.Pairs[i].Value
		if math.Abs(a-b) > 1e-6*(1+math.Abs(b)) {
			t.Fatalf("key %d: %v vs %v", ra.Pairs[i].Key, a, b)
		}
	}
}

// TestConfigFromEnvIntegration drives the public env-var path.
func TestConfigFromEnvIntegration(t *testing.T) {
	t.Setenv("RAMR_MAPPERS", "2")
	t.Setenv("RAMR_RATIO", "2")
	t.Setenv("RAMR_BATCH_SIZE", "64")
	cfg, err := ramr.ConfigFromEnv()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Mappers != 2 || cfg.BatchSize != 64 {
		t.Fatalf("%+v", cfg)
	}
	spec := wcSpec(8)
	res, err := ramr.Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) == 0 {
		t.Fatal("no output")
	}
}

// TestTopologyPresetsPublic sanity-checks the re-exported presets.
func TestTopologyPresetsPublic(t *testing.T) {
	if ramr.HaswellServer().NumCPUs() != 56 {
		t.Fatal("Haswell preset")
	}
	if ramr.XeonPhi().NumCPUs() != 228 {
		t.Fatal("Phi preset")
	}
	m := ramr.DetectMachine()
	if m.NumCPUs() < 1 {
		t.Fatal("detect")
	}
	if !strings.Contains(m.String(), "logical CPUs") {
		t.Fatal("machine String")
	}
}
