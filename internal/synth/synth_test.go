package synth

import (
	"testing"

	"ramr/internal/mr"
	"ramr/internal/topology"
	"ramr/internal/workloads"
)

func cfg(ratio int) mr.Config {
	c := mr.DefaultConfig()
	c.Mappers = 3
	c.Combiners = 0
	c.Ratio = ratio
	c.QueueCapacity = 256
	c.BatchSize = 32
	c.Machine = topology.Flat(4)
	c.Pin = mr.PinNone
	return c
}

func smallParams() Params {
	p := DefaultParams()
	p.Elements = 5_000
	p.Keys = 64
	p.MapKernel = Kernel{CPU, 5}
	p.CombineKernel = Kernel{Memory, 3}
	return p
}

// TestEnginesAgree: the synthetic job's uint64-sum algebra is exactly
// associative/commutative, so digests must match across engines, ratios
// and kernel mixes.
func TestEnginesAgree(t *testing.T) {
	for _, mix := range []struct{ m, c Kernel }{
		{Kernel{CPU, 5}, Kernel{Memory, 3}},
		{Kernel{Memory, 3}, Kernel{CPU, 5}},
		{Kernel{CPU, 1}, Kernel{CPU, 1}},
	} {
		p := smallParams()
		p.MapKernel, p.CombineKernel = mix.m, mix.c
		job := NewJob(p, 7)
		ra, err := job.Run(workloads.EngineRAMR, cfg(2))
		if err != nil {
			t.Fatal(err)
		}
		ph, err := job.Run(workloads.EnginePhoenix, cfg(1))
		if err != nil {
			t.Fatal(err)
		}
		if ra.Digest != ph.Digest || ra.Pairs != ph.Pairs {
			t.Fatalf("mix %+v: engines disagree (%x vs %x)", mix, ra.Digest, ph.Digest)
		}
		if ra.Pairs != p.Keys {
			t.Fatalf("pairs = %d, want %d", ra.Pairs, p.Keys)
		}
	}
}

func TestDeterministicAcrossRatios(t *testing.T) {
	p := smallParams()
	job := NewJob(p, 11)
	var digest uint64
	for _, ratio := range []int{1, 2, 3} {
		info, err := job.Run(workloads.EngineRAMR, cfg(ratio))
		if err != nil {
			t.Fatal(err)
		}
		if digest == 0 {
			digest = info.Digest
		} else if info.Digest != digest {
			t.Fatalf("ratio %d changes the result", ratio)
		}
	}
}

func TestSeedChangesResult(t *testing.T) {
	p := smallParams()
	a, err := NewJob(p, 1).Run(workloads.EngineRAMR, cfg(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewJob(p, 2).Run(workloads.EngineRAMR, cfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest == b.Digest {
		t.Fatal("seed has no effect")
	}
}

func TestKernelRunConsumesIntensity(t *testing.T) {
	// Zero intensity must be safe and fast; higher intensity changes
	// the CPU kernel's output token.
	k0 := Kernel{CPU, 0}
	_ = k0.Run(1)
	// The CPU kernel's trig/exp map converges to a fixed point, so its
	// *output* may stabilize; assert only that it runs and that seeds
	// steer it before convergence.
	k1 := Kernel{CPU, 2}
	if k1.Run(5) == k1.Run(50) {
		t.Fatal("cpu kernel ignores seed")
	}
	m := Kernel{Memory, 4}
	if m.Run(3) == m.Run(4) {
		t.Fatal("memory kernel ignores seed")
	}
}

func TestParamsDefaultsClamped(t *testing.T) {
	p := smallParams()
	p.SplitElements = 0
	p.Keys = 0
	job := NewJob(p, 3)
	info, err := job.Run(workloads.EngineRAMR, cfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if info.Pairs != 1 {
		t.Fatalf("keys clamped to 1, got %d pairs", info.Pairs)
	}
}

func TestKindString(t *testing.T) {
	if CPU.String() != "cpu" || Memory.String() != "memory" {
		t.Fatal("kind names")
	}
}

// TestSkewedSplits: Zipf split sizes cover the input exactly, respect
// the 8x cap, and place the heavy splits at the front of the element
// range (the contiguous span seeded to locality group 0).
func TestSkewedSplits(t *testing.T) {
	p := smallParams()
	p.SplitElements = 64
	p.Skew = 1.3
	splits := skewedSplits(p, 9)
	covered := 0
	prevSize := 1 << 30
	maxSize := 0
	for i, s := range splits {
		if s[0] != covered || s[1] <= s[0] {
			t.Fatalf("split %d = %v does not continue coverage at %d", i, s, covered)
		}
		sz := s[1] - s[0]
		if sz > prevSize {
			t.Fatalf("split %d size %d exceeds predecessor %d: heavy splits not front-clustered", i, sz, prevSize)
		}
		if sz > 8*p.SplitElements {
			t.Fatalf("split %d size %d exceeds the 8x cap %d", i, sz, 8*p.SplitElements)
		}
		if sz > maxSize {
			maxSize = sz
		}
		prevSize = sz
		covered = s[1]
	}
	if covered != p.Elements {
		t.Fatalf("splits cover %d elements, want %d", covered, p.Elements)
	}
	if maxSize <= p.SplitElements {
		t.Fatalf("max split size %d shows no skew over the %d base", maxSize, p.SplitElements)
	}
}

// TestSkewedEnginesAgree: skew only reshapes splits and keys; the
// algebra stays exact, so both engines must still agree, and the key
// histogram must actually be skewed (hot key far above the mean).
func TestSkewedEnginesAgree(t *testing.T) {
	p := smallParams()
	p.Skew = 1.5
	// Wider than the element count would fill uniformly (e % keys covers
	// the whole range when Elements >= Keys); zipf draws leave tail keys
	// untouched, which the Pairs assertion below detects.
	p.Keys = 4096
	job := NewJob(p, 7)
	ra, err := job.Run(workloads.EngineRAMR, cfg(2))
	if err != nil {
		t.Fatal(err)
	}
	ph, err := job.Run(workloads.EnginePhoenix, cfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if ra.Digest != ph.Digest || ra.Pairs != ph.Pairs {
		t.Fatalf("skewed engines disagree (%x/%d vs %x/%d)", ra.Digest, ra.Pairs, ph.Digest, ph.Pairs)
	}
	// Zipf keys concentrate on a prefix of the range, so the output key
	// count drops well below the full width the uniform input fills.
	if ra.Pairs >= p.Keys {
		t.Fatalf("skewed run filled all %d keys; zipf keying not applied", p.Keys)
	}

	uniform, err := NewJob(smallParams(), 7).Run(workloads.EngineRAMR, cfg(2))
	if err != nil {
		t.Fatal(err)
	}
	if uniform.Digest == ra.Digest {
		t.Fatal("skew has no effect on the result")
	}
}

// TestShardMergeMatchesSingleNode pins the cluster contract for SYNTH,
// and — because the merge digest fold is re-stated in the workloads
// package (synthPairDigest) while the job digest fold lives here —
// cross-checks that the two stay in sync: shard partials merged and
// summarized must reproduce the single-node digest bit for bit, on either
// engine. The skewed row is the one whose shards draw their own key ranges
// only (and whose uneven splits exercise the shard partition too).
func TestShardMergeMatchesSingleNode(t *testing.T) {
	for _, skew := range []float64{0, 1.5} {
		p := smallParams()
		p.Skew = skew
		full, err := NewJob(p, int64(7)).Run(workloads.EngineRAMR, cfg(2))
		if err != nil {
			t.Fatal(err)
		}
		px, err := NewJob(p, int64(7)).Run(workloads.EnginePhoenix, cfg(2))
		if err != nil {
			t.Fatal(err)
		}
		if px.Pairs != full.Pairs || px.Digest != full.Digest {
			t.Fatalf("skew %g: Phoenix++ (%d pairs, %016x), RAMR (%d pairs, %016x)", skew, px.Pairs, px.Digest, full.Pairs, full.Digest)
		}
		for _, count := range []int{1, 2, 3, 7} {
			parts := make([]*workloads.Partial, count)
			for i := 0; i < count; i++ {
				sj, err := NewShardJob(p, int64(7), workloads.ShardSpec{Index: i, Count: count})
				if err != nil {
					t.Fatal(err)
				}
				si, err := sj.Run(workloads.EngineRAMR, cfg(2))
				if err != nil {
					t.Fatalf("skew %g shard %d/%d: %v", skew, i, count, err)
				}
				if si.Partial == nil {
					t.Fatalf("skew %g shard %d/%d exported no partial", skew, i, count)
				}
				parts[i] = si.Partial
			}
			merged, err := workloads.MergePartials(parts)
			if err != nil {
				t.Fatal(err)
			}
			pairs, digest, err := merged.Summary()
			if err != nil {
				t.Fatal(err)
			}
			if pairs != full.Pairs || digest != full.Digest {
				t.Fatalf("skew %g sharded %d ways: merged (%d pairs, %016x), single-node (%d pairs, %016x)",
					skew, count, pairs, digest, full.Pairs, full.Digest)
			}
		}
	}
}

func TestShardJobValidates(t *testing.T) {
	if _, err := NewShardJob(smallParams(), 1, workloads.ShardSpec{Index: 5, Count: 2}); err == nil {
		t.Error("out-of-range shard should fail")
	}
}
