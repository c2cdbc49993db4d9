package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeanStdDev(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil)")
	}
	if !almost(Mean([]float64{1, 2, 3, 4}), 2.5) {
		t.Fatal("Mean")
	}
	if StdDev([]float64{5}) != 0 {
		t.Fatal("StdDev single")
	}
	if !almost(StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}), 2.13808993529939) {
		t.Fatalf("StdDev = %v", StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}))
	}
}

func TestMedianMinMax(t *testing.T) {
	if Median(nil) != 0 {
		t.Fatal("Median(nil)")
	}
	if !almost(Median([]float64{3, 1, 2}), 2) {
		t.Fatal("odd median")
	}
	if !almost(Median([]float64{4, 1, 2, 3}), 2.5) {
		t.Fatal("even median")
	}
	if Min([]float64{3, -1, 2}) != -1 || Max([]float64{3, -1, 2}) != 3 {
		t.Fatal("min/max")
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Fatal("empty min/max")
	}
}

func TestSpeedup(t *testing.T) {
	if !almost(Speedup(10, 5), 2) {
		t.Fatal("speedup")
	}
	if !math.IsInf(Speedup(1, 0), 1) {
		t.Fatal("zero alternative")
	}
}

func TestGeoMean(t *testing.T) {
	if GeoMean(nil) != 0 {
		t.Fatal("empty")
	}
	if !almost(GeoMean([]float64{2, 8}), 4) {
		t.Fatal("geomean")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive should panic")
		}
	}()
	GeoMean([]float64{1, 0})
}

func TestNormalizeTo(t *testing.T) {
	out := NormalizeTo([]float64{2, 4, 6}, 2)
	if !almost(out[0], 1) || !almost(out[1], 2) || !almost(out[2], 3) {
		t.Fatalf("%v", out)
	}
}

func TestRngDeterministicAndSplit(t *testing.T) {
	a1 := Rng(7, "stream-a").Int63()
	a2 := Rng(7, "stream-a").Int63()
	b := Rng(7, "stream-b").Int63()
	c := Rng(8, "stream-a").Int63()
	if a1 != a2 {
		t.Fatal("same seed+stream must reproduce")
	}
	if a1 == b || a1 == c {
		t.Fatal("different streams/seeds should differ")
	}
}

func TestZipfSkewAndRange(t *testing.T) {
	z := NewZipf(Rng(1, "z"), 1.3, 100)
	counts := make([]int, 100)
	const n = 20000
	for i := 0; i < n; i++ {
		v := z.Next()
		if v >= 100 {
			t.Fatalf("zipf out of range: %d", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[50]*2 {
		t.Fatalf("zipf not skewed: rank0=%d rank50=%d", counts[0], counts[50])
	}
	// Degenerate n.
	z0 := NewZipf(Rng(1, "z0"), 1.3, 0)
	if z0.Next() != 0 {
		t.Fatal("n=0 zipf should emit 0")
	}
}

// TestQuickMeanBounds: the mean of any sample lies within [min, max].
func TestQuickMeanBounds(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			// Skip pathological magnitudes whose *sum* overflows —
			// that is an IEEE limitation, not a Mean bug.
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e300 {
				return true
			}
		}
		m := Mean(xs)
		return m >= Min(xs)-1e-9 && m <= Max(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamSubstreams: substream i of a (seed, label) family is a pure
// function of (seed, label, i) — seeking back replays it, whatever was drawn
// in between — and distinct substreams, labels and seeds diverge.
func TestStreamSubstreams(t *testing.T) {
	draw := func(s *Stream, i int) [4]uint64 {
		s.Seek(i)
		return [4]uint64{s.Uint64(), s.Uint64(), s.Uint64(), s.Uint64()}
	}
	s := NewStream(7, "a")
	first := draw(s, 3)
	for i := 0; i < 100; i++ {
		s.Uint64()
	}
	draw(s, 9)
	if draw(s, 3) != first || draw(NewStream(7, "a"), 3) != first {
		t.Fatal("substream 3 is not a function of (seed, label, 3)")
	}
	seen := map[[4]uint64]string{first: "7/a/3"}
	for name, got := range map[string][4]uint64{
		"7/a/2": draw(s, 2), "7/a/4": draw(s, 4),
		"7/b/3": draw(NewStream(7, "b"), 3), "8/a/3": draw(NewStream(8, "a"), 3),
	} {
		if prev, dup := seen[got]; dup {
			t.Fatalf("substreams %s and %s coincide", prev, name)
		}
		seen[got] = name
	}
	// Through math/rand: Int63 stays non-negative, and a Zipf over the
	// source stays in range and skewed.
	z := NewZipf(rand.New(s), 1.2, 100)
	var head int
	for i := 0; i < 5000; i++ {
		if s.Int63() < 0 {
			t.Fatal("Int63 returned a negative value")
		}
		if v := z.Next(); v >= 100 {
			t.Fatalf("zipf out of range: %d", v)
		} else if v == 0 {
			head++
		}
	}
	if head < 500 {
		t.Fatalf("zipf over a Stream is not skewed: rank 0 drawn %d of 5000 times", head)
	}
}
