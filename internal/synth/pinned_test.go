package synth

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"ramr/internal/stats"
	"ramr/internal/workloads"
)

// pinnedInputs are the SHA-256 digests of the default (HWL-Small) synthetic
// input — split ranges, and the key table of a skewed job — computed before
// the Zipf sampler was rewritten. workloads' TestInputBytesPinned pins the
// Table I apps the same way.
var pinnedInputs = map[string]string{
	"SYNTH/skew0/1of2/seed1":    "df2b01bb30349c19c82b801c02610641265d4c1e8d9c34c064477a4430e4e6db",
	"SYNTH/skew0/1of2/seed2":    "df2b01bb30349c19c82b801c02610641265d4c1e8d9c34c064477a4430e4e6db",
	"SYNTH/skew0/whole/seed1":   "23ead0156ebad5ab416367bd7944120ada5160d4aa6c05a0ecf079ac6130d574",
	"SYNTH/skew0/whole/seed2":   "23ead0156ebad5ab416367bd7944120ada5160d4aa6c05a0ecf079ac6130d574",
	"SYNTH/skew1.5/1of2/seed1":  "9a2f506ec7a3a84796f65e7cda005eac0ac38e1e264879883c101cbcc8784f23",
	"SYNTH/skew1.5/1of2/seed2":  "b9e3eb874c6e84015478d59ad0fd7c079fd5738ac4be73f5944a7bf586748cac",
	"SYNTH/skew1.5/whole/seed1": "d4ee04dd743e734741e62de7993eb4dbdc7c72909989e0a46c76a7582d85fc5f",
	"SYNTH/skew1.5/whole/seed2": "587dfa3cd7a6c055d065bffd42707ea884990322f315c3889636369f08c33dcc",
}

// TestInputBytesPinned: uniform and skew-1.5 inputs, whole and shard 1/2,
// seeds 1 and 2, hash to the pinned digests; a mismatch prints the whole
// current map.
func TestInputBytesPinned(t *testing.T) {
	got := map[string]string{}
	for _, seed := range []int64{1, 2} {
		for _, skew := range []float64{0, 1.5} {
			for _, sh := range []*workloads.ShardSpec{nil, {Index: 1, Count: 2}} {
				p := DefaultParams()
				p.Skew = skew
				splits, keyTab := input(p, seed, sh, 3)
				h := sha256.New()
				binary.Write(h, binary.LittleEndian, int64(len(splits)))
				for _, r := range splits {
					binary.Write(h, binary.LittleEndian, [2]int64{int64(r[0]), int64(r[1])})
				}
				binary.Write(h, binary.LittleEndian, keyTab)
				shard := "whole"
				if sh != nil {
					shard = "1of2"
				}
				got[fmt.Sprintf("SYNTH/skew%g/%s/seed%d", skew, shard, seed)] = hex.EncodeToString(h.Sum(nil))
			}
		}
	}
	var bad []string
	for k, v := range got {
		if pinnedInputs[k] != v {
			bad = append(bad, k)
		}
	}
	if len(bad) == 0 && len(got) == len(pinnedInputs) {
		return
	}
	sort.Strings(bad)
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "\t%q: %q,\n", k, got[k])
	}
	t.Fatalf("generated inputs differ from the pinned bytes at %v (%d pinned, %d generated); current map:\n%s",
		bad, len(pinnedInputs), len(got), b.String())
}

// TestSkewedKeysBeyondTable: a key range far above the Zipf table bound
// (keys 10^6, so every draw runs the rejection-inversion arithmetic) draws
// exactly math/rand's keys, and the run matches the serial reference.
func TestSkewedKeysBeyondTable(t *testing.T) {
	p := smallParams()
	p.Skew = 1.5
	p.Keys = 1_000_000
	splits, keyTab := input(p, 3, nil, 2)
	src := stats.NewStream(3, "synth-keys")
	z := rand.NewZipf(rand.New(src), p.Skew, 1, uint64(p.Keys-1))
	for _, sp := range splits {
		src.Seek(sp[0])
		for e := sp[0]; e < sp[1]; e++ {
			if want := int32(z.Uint64()); keyTab[e] != want {
				t.Fatalf("element %d: key %d, math/rand drew %d", e, keyTab[e], want)
			}
		}
	}
	job := NewJob(p, 3)
	ra, err := job.Run(workloads.EngineRAMR, cfg(2))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := job.Run(workloads.EngineReference, cfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if ra.Digest != ref.Digest || ra.Pairs != ref.Pairs {
		t.Fatalf("keys 10^6: RAMR %x/%d, reference %x/%d", ra.Digest, ra.Pairs, ref.Digest, ref.Pairs)
	}
}

// pinnedMemoryKernel are Kernel{Memory, n}.Run(seed) values, computed while
// the kernel's wide table was still a Go-heap slice: where the table lives
// may change, what the kernel reads from it may not.
var pinnedMemoryKernel = []struct {
	n    int
	seed uint64
	want uint64
}{
	{0, 0, 0},
	{1, 0, 17976034339050859422},
	{1, 1, 17976034339050859422}, // the walk starts at seed|1
	{1, 2, 10693704485271719465},
	{20, 7, 3557571437670192864},
	{20, 1 << 40, 11946492944256568636},
	{1000, 12345, 6316567169254146216},
}

// TestMemoryKernelPinned: the memory kernel's checksums match the pinned
// values.
func TestMemoryKernelPinned(t *testing.T) {
	for _, row := range pinnedMemoryKernel {
		if got := (Kernel{Memory, row.n}).Run(row.seed); got != row.want {
			t.Errorf("Kernel{Memory, %d}.Run(%d) = %d, pinned %d", row.n, row.seed, got, row.want)
		}
	}
}

// TestMemoryMapDigestPinned: a SYNTH job whose map kernel is memory:20
// carries each element's memory-kernel checksum into the output, so its
// digest reads the wide table; the default job's combine kernel discards
// its checksum and reads nothing of it. Every engine lands on the pinned
// digest.
func TestMemoryMapDigestPinned(t *testing.T) {
	const wantPairs, wantDigest = 1024, uint64(0x649a0b3d64338884)
	p := DefaultParams()
	p.Elements = 20_000
	p.MapKernel = Kernel{Memory, 20}
	job := NewJob(p, 11)
	for _, e := range []workloads.Engine{workloads.EngineRAMR, workloads.EnginePhoenix, workloads.EngineReference} {
		info, err := job.Run(e, cfg(2))
		if err != nil {
			t.Fatal(err)
		}
		if info.Pairs != wantPairs || info.Digest != wantDigest {
			t.Errorf("%v: %d pairs, digest %#x; pinned %d, %#x", e, info.Pairs, info.Digest, wantPairs, wantDigest)
		}
	}
}
