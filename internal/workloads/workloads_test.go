package workloads

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"ramr/internal/container"
	"ramr/internal/core"
	"ramr/internal/mr"
	"ramr/internal/stream"
	"ramr/internal/telemetry"
	"ramr/internal/topology"
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

// TestEnginesAgreeExact: RAMR and Phoenix++ must each produce exactly the
// serial reference's output (mr.Reference, which shares no code with the
// engines' batch body) for every Table I app under both of its container
// configurations, on both of RAMR's paths and whatever the pipeline's
// back-pressure makes of the run: one or two mappers and combiners, a ring
// of 64 (every slab beyond the first meets a full ring) or one no slab ever
// fills, and a plan that ships nothing (every pair folded where it is
// emitted) or the paper's pinning on the Haswell server preset, whose
// combiners sit on SMT siblings of their mappers (every pair through a
// ring). Digests are order-independent and Combine associative and
// commutative, so where a pair was folded cannot show in the output; KM's
// float centroids agree on the key set only. The books, read off each RAMR
// run's report, must show which path ran: a shipping run's combiners map no
// task, and it pushes every pair it emits and pops every pair it pushed; a
// conserving run pushes nothing and folds in place (combines, never pops)
// exactly the pairs the shipping run pushed. Across the matrix some
// conserving run's combine workers must have run tasks.
func TestEnginesAgreeExact(t *testing.T) {
	var helped uint64
	for _, app := range AppNames() {
		for _, kind := range []container.Kind{DefaultContainer(app), StressContainer(app)} {
			job, err := NewJobParams(app, smallParams(app), kind, seed)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := job.Run(EngineReference, cfg())
			if err != nil {
				t.Fatalf("%s/%v reference: %v", app, kind, err)
			}
			if app != "KM" && ref.Digest == 0 {
				t.Fatalf("%s: integer app should produce a digest", app)
			}
			agree := func(name string, eng Engine, c mr.Config) *RunInfo {
				got, err := job.Run(eng, c)
				if err != nil {
					t.Fatalf("%s %v: %v", name, eng, err)
				}
				if got.Pairs != ref.Pairs || got.Digest != ref.Digest {
					t.Fatalf("%s: %v (%d pairs, %x) disagrees with the reference (%d pairs, %x)",
						name, eng, got.Pairs, got.Digest, ref.Pairs, ref.Digest)
				}
				return got
			}
			agree(fmt.Sprintf("%s/%v", app, kind), EnginePhoenix, cfg())
			for _, mappers := range []int{1, 2} {
				for _, combiners := range []int{1, 2} {
					for _, ring := range []int{64, 1 << 20} {
						var emitted uint64 // pushed by the shipping arm, which runs first
						for _, ship := range []bool{true, false} {
							c := cfg()
							c.Mappers, c.Combiners, c.QueueCapacity = mappers, combiners, ring
							c.Telemetry = telemetry.New()
							if ship {
								c.Machine, c.Pin = topology.HaswellServer(), mr.PinRAMR
							}
							name := fmt.Sprintf("%s/%v m=%d c=%d ring=%d ship=%v", app, kind, mappers, combiners, ring, ship)
							ra := agree(name, EngineRAMR, c)
							tot := ra.Telemetry.Totals
							var combinerTasks uint64
							for _, w := range ra.Telemetry.Workers {
								if w.Role == "combiner" {
									combinerTasks += w.Tasks
								}
							}
							if ship {
								if combinerTasks != 0 || ra.Queue.Pushes == 0 || ra.Queue.Pushes != tot.Emitted || ra.Queue.Pushes != ra.Queue.Pops {
									t.Fatalf("%s: sibling plan: combiners mapped %d tasks, %d emitted, %d pushed, %d popped; want no help and every pair through a ring",
										name, combinerTasks, tot.Emitted, ra.Queue.Pushes, ra.Queue.Pops)
								}
								emitted = ra.Queue.Pushes
								continue
							}
							if ra.Queue.Pushes != 0 || tot.Emitted != emitted || tot.Combined != emitted {
								t.Fatalf("%s: conserving: %d pushed, %d emitted, %d folded in place; want none pushed and all %d folded",
									name, ra.Queue.Pushes, tot.Emitted, tot.Combined, emitted)
							}
							helped += combinerTasks
						}
					}
				}
			}
		}
	}
	if helped == 0 {
		t.Fatal("across the matrix no conserving run's combine worker ran a task")
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

// FuzzWordCountMap: WC's Map emits exactly the words of
// strings.Split(s, " ") with the empty strings dropped, in order. Only the
// space separates words: tabs, newlines and invalid UTF-8 are word bytes.
func FuzzWordCountMap(f *testing.F) {
	for _, s := range []string{"", "    ", " lead", "trail ", "dou  bled", "  a  b  ", "tab\tand\nnewline words", "bad \xff\xfe utf8 \xc3"} {
		f.Add(s)
	}
	mapWords := WordCountSpec(nil, container.KindHash).Map
	f.Fuzz(func(t *testing.T, s string) {
		var want, got []string
		for _, w := range strings.Split(s, " ") {
			if w != "" {
				want = append(want, w)
			}
		}
		mapWords(s, func(w string, n int) {
			if n != 1 {
				t.Fatalf("%q: emitted %q with count %d, want 1", s, w, n)
			}
			got = append(got, w)
		})
		if !slices.Equal(got, want) {
			t.Fatalf("%q: Map emitted %q, want %q", s, got, want)
		}
	})
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
	res, err := core.RunPhoenixContext(context.Background(), spec, cfg())
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
	ph, err := core.RunPhoenixContext(context.Background(), spec, cfg())
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
	res, err := core.RunPhoenixContext(context.Background(), spec, cfg())
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

// TestParseEngine: both engines' wire names parse, and the serial
// reference has none, so it can never be requested from outside a test.
func TestParseEngine(t *testing.T) {
	for name, want := range map[string]Engine{"": EngineRAMR, "RAMR": EngineRAMR, "phoenix": EnginePhoenix, "Phoenix++": EnginePhoenix} {
		if got, err := ParseEngine(name); err != nil || got != want {
			t.Fatalf("ParseEngine(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"reference", EngineReference.String(), "mr"} {
		if _, err := ParseEngine(name); err == nil {
			t.Fatalf("ParseEngine(%q) accepted", name)
		}
	}
}

func TestRunTypedUnknownEngine(t *testing.T) {
	job := HistogramJob(3000, container.KindFixedArray, seed, nil, 0)
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

// TestStreamWindowMatchesBatchDigest: a one-window WC stream fed a batch
// job's whole input, as one chunk of its splits, seals one window that
// holds the batch run's pairs, and its digest is the batch digest as a
// window document prints it.
func TestStreamWindowMatchesBatchDigest(t *testing.T) {
	p := smallParams("WC")
	job, err := NewJobParams("WC", p, DefaultContainer("WC"), seed)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := job.Run(EngineRAMR, cfg())
	if err != nil {
		t.Fatal(err)
	}
	c := cfg()
	c.Stream = &mr.StreamSpec{Window: 1}
	sess, err := NewWordCountStreamSession(DefaultContainer("WC"), c)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Append(stream.RawChunk{Ts: 0, Lines: GenerateText(p.Bytes, seed)}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	ws := sess.Windows()
	if want := fmt.Sprintf("%016x", batch.Digest); len(ws) != 1 || ws[0].Pairs != batch.Pairs || ws[0].Digest != want {
		t.Fatalf("windows %+v, want one of %d pairs with digest %s", ws, batch.Pairs, want)
	}
}
