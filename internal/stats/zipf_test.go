package stats

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"
)

// zipfCases are the (s, n) the repository draws from — WC's words, the
// perfmodel WC trace, skewed SYNTH's keys and split sizes at their defaults
// — plus the degenerate key ranges.
var zipfCases = []struct {
	s float64
	n uint64
}{
	{1.2, 5000}, {1.5, 5000}, {1.5, 1024}, {1.5, 4096},
	{1.2, 1}, {1.2, 2}, {1.5, 1}, {1.5, 2},
}

// zipfSources are the two source kinds the generators draw through: a
// stats.Stream substream and math/rand's own source.
func zipfSources(seed int64) map[string]func() *rand.Rand {
	return map[string]func() *rand.Rand{
		"stream": func() *rand.Rand {
			s := NewStream(seed, "zipf-oracle")
			s.Seek(3)
			return rand.New(s)
		},
		"rng": func() *rand.Rand { return Rng(seed, "zipf-oracle") },
	}
}

// TestZipfMatchesMathRand: Next returns exactly what math/rand's Zipf
// returns over an identically seeded source, draw for draw — so it also
// consumes the same Int63 values, and the sources stay in step.
func TestZipfMatchesMathRand(t *testing.T) {
	draws := 1 << 20
	if testing.Short() {
		draws = 1 << 16
	}
	for _, c := range zipfCases {
		for name, mk := range zipfSources(int64(c.n)) {
			ours, theirs := mk(), mk()
			z := NewZipf(ours, c.s, c.n)
			ref := rand.NewZipf(theirs, c.s, 1, c.n-1)
			for i := 0; i < draws; i++ {
				if a, b := z.Next(), ref.Uint64(); a != b {
					t.Fatalf("s=%g n=%d %s: draw %d = %d, math/rand drew %d", c.s, c.n, name, i, a, b)
				}
			}
			if ours.Int63() != theirs.Int63() {
				t.Fatalf("s=%g n=%d %s: sources out of step after %d draws", c.s, c.n, name, draws)
			}
		}
		// The direct path: NewStreamZipf reads the Stream itself, and
		// draws what math/rand's Zipf draws over rand.New of its twin.
		ours, theirs := NewStream(int64(c.n), "zipf-oracle"), NewStream(int64(c.n), "zipf-oracle")
		ours.Seek(3)
		theirs.Seek(3)
		z := NewStreamZipf(ours, c.s, c.n)
		ref := rand.NewZipf(rand.New(theirs), c.s, 1, c.n-1)
		for i := 0; i < draws; i++ {
			if a, b := z.Next(), ref.Uint64(); a != b {
				t.Fatalf("s=%g n=%d direct: draw %d = %d, math/rand drew %d", c.s, c.n, i, a, b)
			}
		}
		if ours.Uint64() != theirs.Uint64() {
			t.Fatalf("s=%g n=%d direct: streams out of step after %d draws", c.s, c.n, draws)
		}
	}
}

// TestZipfBoundaryScan: the table answers like the arithmetic on both
// sides of every change point, where a mis-recorded boundary would show.
// Inside the guard band the table defers to the arithmetic, so the scan
// centres on the band's edges, ±RAMR_ZIPF_SCAN (default 256) u wide.
func TestZipfBoundaryScan(t *testing.T) {
	width := uint64(256)
	if w, err := strconv.ParseUint(os.Getenv("RAMR_ZIPF_SCAN"), 10, 64); err == nil {
		width = w
	}
	for _, c := range zipfCases {
		t.Run(fmt.Sprintf("s=%g,n=%d", c.s, c.n), func(t *testing.T) {
			t.Parallel()
			z := NewZipf(rand.New(NewStream(1, "scan")), c.s, c.n)
			if z.t == nil {
				t.Fatal("no table")
			}
			segs := z.t.segs
			for _, sg := range segs[1 : len(segs)-1] {
				for _, centre := range []uint64{sg.lo - zipfGuard, sg.lo + zipfGuard} {
					for u := centre - width; u <= centre+width && u < zipfTop; u++ {
						k, ok := z.round(int64(u))
						kk, okk := z.c.iterate(int64(u))
						if k != uint64(kk) && ok || ok != okk {
							t.Fatalf("u=%d (boundary %d%+d): table (%d, %v), arithmetic (%v, %v)",
								u, sg.lo, int64(u-sg.lo), k, ok, kk, okk)
						}
					}
				}
			}
		})
	}
}

// TestZipfLargeKeyRange: a key range above zipfTableMaxN builds no table
// and still draws math/rand's values, through rand.Rand or the Stream
// itself.
func TestZipfLargeKeyRange(t *testing.T) {
	const n = 1_000_000
	for name, z := range map[string]*Zipf{
		"rand":   NewZipf(rand.New(NewStream(5, "big")), 1.5, n),
		"direct": NewStreamZipf(NewStream(5, "big"), 1.5, n),
	} {
		if z.t != nil {
			t.Fatalf("%s: a table was built above zipfTableMaxN", name)
		}
		ref := rand.NewZipf(rand.New(NewStream(5, "big")), 1.5, 1, n-1)
		for i := 0; i < 100_000; i++ {
			if a, b := z.Next(), ref.Uint64(); a != b {
				t.Fatalf("%s: draw %d = %d, math/rand drew %d", name, i, a, b)
			}
		}
	}
}

// TestZipfCacheBounded: a thousand distinct skews leave at most
// zipfCacheCap tables resident, and concurrent first users of one (s, n)
// share one table.
func TestZipfCacheBounded(t *testing.T) {
	for i := 0; i < 1000; i++ {
		NewZipf(rand.New(NewStream(1, "cap")), 1.01+float64(i)/1000, 64)
	}
	zipfCache.Lock()
	resident := len(zipfCache.m)
	zipfCache.Unlock()
	if resident > zipfCacheCap {
		t.Fatalf("%d tables resident, cap %d", resident, zipfCacheCap)
	}
	tables := make([]*zipfTable, 16)
	var wg sync.WaitGroup
	for g := range tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tables[g] = NewZipf(rand.New(NewStream(1, "once")), 1.7777, 3000).t
		}()
	}
	wg.Wait()
	for _, tb := range tables {
		if tb == nil || tb != tables[0] {
			t.Fatal("concurrent first users of one (s, n) got different tables")
		}
	}
}

// TestStreamInt31n: Stream.Int31n is rand.New(stream).Intn, value for value.
func TestStreamInt31n(t *testing.T) {
	for _, n := range []int32{1, 2, 21, 200, 256, 1 << 30, 1<<31 - 1} {
		a, b := NewStream(2, "intn"), NewStream(2, "intn")
		a.Seek(4)
		b.Seek(4)
		ref := rand.New(b)
		for i := 0; i < 100_000; i++ {
			if x, y := a.Int31n(n), ref.Intn(int(n)); int(x) != y {
				t.Fatalf("n=%d draw %d: %d, rand.Intn %d", n, i, x, y)
			}
		}
	}
}

func BenchmarkZipf(b *testing.B) {
	for _, c := range []struct {
		name string
		mk   func(s *Stream) func() uint64
	}{
		{"table", func(s *Stream) func() uint64 { return NewZipf(rand.New(s), 1.2, 5000).Next }},
		{"direct", func(s *Stream) func() uint64 { return NewStreamZipf(s, 1.2, 5000).Next }},
		{"mathrand", func(s *Stream) func() uint64 { return rand.NewZipf(rand.New(s), 1.2, 1, 4999).Uint64 }},
	} {
		b.Run(c.name, func(b *testing.B) {
			next := c.mk(NewStream(1, "bench"))
			for i := 0; i < b.N; i++ {
				next()
			}
		})
	}
}

func BenchmarkZipfTableBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		buildZipfTable(newZipfConsts(1.2, 4999))
	}
}
