package workloads

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"ramr/internal/container"
	"ramr/internal/core"
	"ramr/internal/mr"
	"ramr/internal/phoenix"
	"ramr/internal/topology"
	"ramr/internal/tuner"
)

const seed = 99

func cfg() mr.Config {
	c := mr.DefaultConfig()
	c.Mappers = 3
	c.Combiners = 2
	c.QueueCapacity = 512
	c.BatchSize = 64
	c.Machine = topology.Flat(4)
	c.Pin = mr.PinNone
	return c
}

// smallParams are CI-sized generator parameters per app.
func smallParams(app string) Params {
	switch app {
	case "WC", "HG":
		return Params{Bytes: 200_000}
	case "LR":
		return Params{Points: 20_000}
	case "KM":
		return Params{Points: 2_000, Dims: 4, K: 8}
	case "PCA":
		return Params{N: 40}
	case "MM":
		return Params{RowsA: 24, Inner: 32, ColsB: 28}
	default:
		return Params{}
	}
}

// TestEnginesAgreeExact: RAMR and Phoenix++ must produce identical output
// for every Table I app under both of its container configurations,
// whatever the pipeline's back-pressure makes of the run: one or two mappers
// and combiners, a ring of 64 (every slab beyond the first meets a full
// ring, so mappers fold most of what they emit) or one no slab ever fills,
// tuner off and on (slots helping while the pool is resized under them).
// Digests are order-independent and Combine associative and commutative, so
// where a pair was folded cannot show in the output; KM's float centroids
// agree on the key set only. Across the matrix both rules must have fired,
// and the huge ring must never have refused a slab.
func TestEnginesAgreeExact(t *testing.T) {
	var helped, foldedTiny, foldedHuge uint64
	for _, app := range AppNames() {
		for _, kind := range []container.Kind{DefaultContainer(app), StressContainer(app)} {
			job, err := NewJobParams(app, smallParams(app), kind, seed)
			if err != nil {
				t.Fatal(err)
			}
			ph, err := job.Run(EnginePhoenix, cfg())
			if err != nil {
				t.Fatalf("%s/%v Phoenix: %v", app, kind, err)
			}
			if app != "KM" && ph.Digest == 0 {
				t.Fatalf("%s: integer app should produce a digest", app)
			}
			for _, mappers := range []int{1, 2} {
				for _, combiners := range []int{1, 2} {
					for _, ring := range []int{64, 1 << 20} {
						for _, tuned := range []bool{false, true} {
							c := cfg()
							c.Mappers, c.Combiners, c.QueueCapacity = mappers, combiners, ring
							if tuned {
								c.Tuner = &tuner.Config{EpochTicks: 1}
							}
							ra, err := job.Run(EngineRAMR, c)
							name := fmt.Sprintf("%s/%v m=%d c=%d ring=%d tuned=%v", app, kind, mappers, combiners, ring, tuned)
							if err != nil {
								t.Fatalf("%s RAMR: %v", name, err)
							}
							if ra.Pairs != ph.Pairs || ra.Digest != ph.Digest {
								t.Fatalf("%s: engines disagree: ramr (%d pairs, %x), phoenix (%d pairs, %x)",
									name, ra.Pairs, ra.Digest, ph.Pairs, ph.Digest)
							}
							if ra.Queue.Pushes != ra.Queue.Pops {
								t.Fatalf("%s: %d pushed, %d popped", name, ra.Queue.Pushes, ra.Queue.Pops)
							}
							helped += ra.Help.Tasks
							if ring == 64 {
								foldedTiny += ra.Help.MapperPairs
							} else {
								foldedHuge += ra.Help.MapperPairs
							}
						}
					}
				}
			}
		}
	}
	if helped == 0 || foldedTiny == 0 || foldedHuge != 0 {
		t.Fatalf("across the matrix: %d tasks helped, %d pairs folded by mappers on rings of 64 (want both > 0), %d on rings of 1Mi (want 0)",
			helped, foldedTiny, foldedHuge)
	}
}

func TestWordCountReference(t *testing.T) {
	splits := GenerateText(50_000, seed)
	// Serial reference.
	want := map[string]int{}
	words := 0
	for _, s := range splits {
		for _, w := range strings.Fields(s) {
			want[w]++
			words++
		}
	}
	spec := WordCountSpec(splits, container.KindHash)
	res, err := core.Run(spec, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != len(want) {
		t.Fatalf("%d distinct words, want %d", len(res.Pairs), len(want))
	}
	total := 0
	for _, p := range res.Pairs {
		if want[p.Key] != p.Value {
			t.Fatalf("count(%q) = %d, want %d", p.Key, p.Value, want[p.Key])
		}
		total += p.Value
	}
	if total != words {
		t.Fatalf("total %d, want %d", total, words)
	}
}

func TestHistogramReference(t *testing.T) {
	splits := GeneratePixels(30_000, seed)
	want := make([]int, hgBuckets)
	pixels := 0
	for _, px := range splits {
		for i := 0; i+2 < len(px); i += 3 {
			want[int(px[i])]++
			want[256+int(px[i+1])]++
			want[512+int(px[i+2])]++
			pixels++
		}
	}
	spec := HistogramSpec(splits, container.KindFixedArray)
	res, err := phoenix.Run(spec, cfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Pairs {
		if want[p.Key] != p.Value {
			t.Fatalf("bucket %d = %d, want %d", p.Key, p.Value, want[p.Key])
		}
	}
	// Channel sums must each equal the pixel count.
	sums := [3]int{}
	for _, p := range res.Pairs {
		sums[p.Key/256] += p.Value
	}
	for ch, s := range sums {
		if s != pixels {
			t.Fatalf("channel %d sum = %d, want %d", ch, s, pixels)
		}
	}
}

func TestLinRegReference(t *testing.T) {
	splits := GenerateLRPoints(10_000, seed)
	var sx, sy, sxx, syy, sxy int64
	n := 0
	for _, pts := range splits {
		for _, p := range pts {
			x, y := int64(p.X), int64(p.Y)
			sx += x
			sy += y
			sxx += x * x
			syy += y * y
			sxy += x * y
			n++
		}
	}
	spec := LinRegSpec(splits, container.KindFixedArray)
	res, err := core.Run(spec, cfg())
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]int64{}
	for _, p := range res.Pairs {
		got[p.Key] = p.Value
	}
	for key, want := range map[int]int64{lrKeySX: sx, lrKeySY: sy, lrKeySXX: sxx, lrKeySYY: syy, lrKeySXY: sxy} {
		if got[key] != want {
			t.Fatalf("key %d = %d, want %d", key, got[key], want)
		}
	}
	// The generated data follows y ~ 0.7x + 30; the fit must recover it.
	slope, intercept := LRSolve(n, got)
	if math.Abs(slope-0.7) > 0.05 || math.Abs(intercept-30) > 6 {
		t.Fatalf("fit = %.3fx + %.1f, want ~0.7x + 30", slope, intercept)
	}
}

func TestKMeansReference(t *testing.T) {
	in := GenerateKMeans(1500, 4, 6, seed)
	spec := KMeansSpec(in, container.KindFixedArray)
	res, err := core.Run(spec, cfg())
	if err != nil {
		t.Fatal(err)
	}
	// Serial reference assignment.
	stride := in.Dims + 1
	want := make([]float64, in.K*stride)
	for p := 0; p < 1500; p++ {
		pt := in.Points[p*in.Dims : (p+1)*in.Dims]
		best, bestD := 0, math.Inf(1)
		for c := 0; c < in.K; c++ {
			ct := in.Centroids[c*in.Dims : (c+1)*in.Dims]
			var d2 float64
			for d := 0; d < in.Dims; d++ {
				diff := pt[d] - ct[d]
				d2 += diff * diff
			}
			if d2 < bestD {
				best, bestD = c, d2
			}
		}
		for d := 0; d < in.Dims; d++ {
			want[best*stride+d] += pt[d]
		}
		want[best*stride+in.Dims]++
	}
	for _, p := range res.Pairs {
		if diff := math.Abs(p.Value - want[p.Key]); diff > 1e-6*(1+math.Abs(want[p.Key])) {
			t.Fatalf("key %d = %v, want %v", p.Key, p.Value, want[p.Key])
		}
	}
	// One step must move centroids toward the data (finite values).
	next := KMeansStep(in, res.Pairs)
	if len(next) != len(in.Centroids) {
		t.Fatal("KMeansStep size")
	}
	for _, v := range next {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite centroid")
		}
	}
}

// TestKMeansEnginesAgreeApprox: float accumulation differs in rounding
// only.
func TestKMeansEnginesAgreeApprox(t *testing.T) {
	in := GenerateKMeans(1200, 4, 5, seed)
	spec := KMeansSpec(in, container.KindFixedArray)
	ra, err := core.Run(spec, cfg())
	if err != nil {
		t.Fatal(err)
	}
	ph, err := phoenix.Run(spec, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(ra.Pairs) != len(ph.Pairs) {
		t.Fatalf("key sets differ: %d vs %d", len(ra.Pairs), len(ph.Pairs))
	}
	for i := range ra.Pairs {
		a, b := ra.Pairs[i], ph.Pairs[i]
		if a.Key != b.Key || math.Abs(a.Value-b.Value) > 1e-6*(1+math.Abs(b.Value)) {
			t.Fatalf("pair %d: ramr %+v vs phoenix %+v", i, a, b)
		}
	}
}

func TestMatMulReference(t *testing.T) {
	in := GenerateMM(12, 16, 14, seed)
	spec := MatMulSpec(in, container.KindFixedArray)
	res, err := core.Run(spec, cfg())
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]int64{}
	for _, p := range res.Pairs {
		got[p.Key] = p.Value
	}
	for i := 0; i < in.Rows; i++ {
		for j := 0; j < in.Cols; j++ {
			var want int64
			for k := 0; k < in.Inner; k++ {
				want += int64(in.A[i*in.Inner+k]) * int64(in.B[k*in.Cols+j])
			}
			if got[i*in.Cols+j] != want {
				t.Fatalf("C[%d,%d] = %d, want %d", i, j, got[i*in.Cols+j], want)
			}
		}
	}
}

func TestPCAReference(t *testing.T) {
	in := GeneratePCA(24, seed)
	spec := PCASpec(in, container.KindFixedArray)
	res, err := phoenix.Run(spec, cfg())
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]int64{}
	for _, p := range res.Pairs {
		got[p.Key] = p.Value
	}
	n := in.N
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			var cov int64
			for k := 0; k < n; k++ {
				cov += (int64(in.Matrix[i*n+k]) - int64(in.Mean[i])) *
					(int64(in.Matrix[j*n+k]) - int64(in.Mean[j]))
			}
			cov /= int64(n - 1)
			if got[i*n+j] != cov {
				t.Fatalf("cov(%d,%d) = %d, want %d", i, j, got[i*n+j], cov)
			}
		}
	}
	// Diagonal entries are variances: non-negative.
	for i := 0; i < n; i++ {
		if got[i*n+i] < 0 {
			t.Fatalf("negative variance at row %d", i)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := GenerateText(10_000, 5)
	b := GenerateText(10_000, 5)
	if len(a) != len(b) || a[0] != b[0] {
		t.Fatal("GenerateText not deterministic")
	}
	c := GenerateText(10_000, 6)
	if a[0] == c[0] {
		t.Fatal("seed has no effect")
	}
}

func TestTable1Coverage(t *testing.T) {
	for _, p := range []Platform{HWL, PHI} {
		for _, c := range SizeClasses() {
			ins := Inputs(p, c)
			if len(ins) != 6 {
				t.Fatalf("%v/%v: %d inputs", p, c, len(ins))
			}
			for _, in := range ins {
				if in.Paper == "" {
					t.Fatalf("%v/%v/%s: missing paper size", p, c, in.App)
				}
			}
		}
	}
	// Scaling must preserve Table I ratios: WC HWL Large/Small = 4x.
	small, _ := Input("WC", HWL, Small)
	large, _ := Input("WC", HWL, Large)
	if large.Params.Bytes != 4*small.Params.Bytes {
		t.Fatalf("WC HWL Large/Small = %d/%d, want 4x", large.Params.Bytes, small.Params.Bytes)
	}
	if _, err := Input("NOPE", HWL, Small); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestContainerSelections(t *testing.T) {
	if DefaultContainer("WC") != container.KindHash {
		t.Fatal("WC default should be hash")
	}
	if DefaultContainer("HG") != container.KindFixedArray {
		t.Fatal("HG default should be array")
	}
	if StressContainer("MM") != container.KindHash || StressContainer("PCA") != container.KindHash {
		t.Fatal("MM/PCA stress should be regular hash")
	}
	if StressContainer("LR") != container.KindFixedHash {
		t.Fatal("LR stress should be fixed-hash")
	}
}

func TestNewJobUnknownApp(t *testing.T) {
	if _, err := NewJob("XX", HWL, Small, container.KindHash, 1); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, err := NewJobParams("XX", Params{}, container.KindHash, 1); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestEngineString(t *testing.T) {
	if EngineRAMR.String() != "RAMR" || EnginePhoenix.String() != "Phoenix++" {
		t.Fatal("engine names")
	}
	if Engine(9).String() == "" {
		t.Fatal("unknown engine should render")
	}
}

func TestRunTypedUnknownEngine(t *testing.T) {
	job := HistogramJob(3000, container.KindFixedArray, seed)
	if _, err := job.Run(Engine(42), cfg()); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func TestNewJobParamsSM(t *testing.T) {
	job, err := NewJobParams("SM", Params{Bytes: 30_000}, DefaultContainer("WC"), seed)
	if err != nil {
		t.Fatal(err)
	}
	info, err := job.Run(EngineRAMR, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if info.Pairs == 0 || info.Pairs > len(SMPatterns) {
		t.Fatalf("SM matched %d patterns", info.Pairs)
	}
}
