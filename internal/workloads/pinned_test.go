package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"ramr/internal/container"
	"ramr/internal/stats"
)

// pinnedInputs are the SHA-256 digests of the generated HWL-Small inputs,
// computed before the generators' draws were rewritten (table-driven Zipf,
// constant-divisor bounded draws). A faster generator must produce the same
// bytes: every output digest, memo key and golden downstream rests on them.
var pinnedInputs = map[string]string{
	"HG/1of2/seed1":   "4a1fcfb83426ec94c56b423a8dbc132c0f4a1a6a962f56f9f8f603436ee64213",
	"HG/1of2/seed2":   "bccd78a29f098bb7e93d1f4324f5ff33dee948023be4115f57631d3938ee8d6f",
	"HG/whole/seed1":  "f26a57b4ae4b31de7cc11d0c6affaaf016982002ff8e9d13a9b728edb63043c6",
	"HG/whole/seed2":  "de32e6c46333050319508f5239866ab5c22f7bb02fbf781d14c470f5c07cc5fb",
	"KM/whole/seed1":  "d2116f294115c0dc82a190c87a2cea930f8f7028b39f956ebb37377776c36b9c",
	"KM/whole/seed2":  "29310b33b4af4e311e7bc5e2d6580f842082e0f1a9d75dccd389d9b24a96d117",
	"LR/whole/seed1":  "8e7e5d72ed560193857b54a85aa971f179b1b49404f95d59e0eed753485aebc9",
	"LR/whole/seed2":  "a56793aa033b64f319badd609a9e528428f9c0d3eeb2e5433f207896d03128d0",
	"MM/whole/seed1":  "482015f55d2cb93ffd3cd9d7ac07e0059a41d47e9574eb7900bf62c900240d8f",
	"MM/whole/seed2":  "4b916357abd9052bdf619f64d9b1de6eaaed8b6ebc8eef163f170b29ec4346aa",
	"PCA/whole/seed1": "807df9547daebfb7a3092220234035213d5bcae0f444d1a6c2767e58c876c723",
	"PCA/whole/seed2": "1b8a91cd04bbcb1cbc06bd60116a934bd1f66b209ac477f73e3d85312cead274",
	"SM/whole/seed1":  "d24a9ac8ae7b4fa519acf9b92a4a9b4a3680f0c3e9cb658c7692d1a865de4457",
	"SM/whole/seed2":  "2c94695d627f7a8d03477cb35f4a6f5cb5d98bca37d7cf736928e1022d303877",
	"WC/1of2/seed1":   "98bd5af9696137234487ed2526b389ffe845db7d67dac1d0347ca81f450f1657",
	"WC/1of2/seed2":   "38e1edb4de0503468709fe6ddda629efc873ab9cef272a6003ac7b97ee604a26",
	"WC/whole/seed1":  "174bf4dcf8c5bd02a692a4c572f770c3720dfe94547347fda2ab8d6888bb2e2b",
	"WC/whole/seed2":  "1e9f418454a44b7dde302f52fb5ab0717d8241ff540d391343ca71e1d30f8a23",
}

// pinDigest hashes the values in order: strings and byte slices as
// length-prefixed bytes, fixed-size values and slices of them little-endian.
func pinDigest(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		switch v := p.(type) {
		case string:
			binary.Write(h, binary.LittleEndian, int64(len(v)))
			h.Write([]byte(v))
		case []string:
			binary.Write(h, binary.LittleEndian, int64(len(v)))
			for _, s := range v {
				binary.Write(h, binary.LittleEndian, int64(len(s)))
				h.Write([]byte(s))
			}
		case [][]byte:
			binary.Write(h, binary.LittleEndian, int64(len(v)))
			for _, b := range v {
				binary.Write(h, binary.LittleEndian, int64(len(b)))
				h.Write(b)
			}
		case [][]LRPoint:
			binary.Write(h, binary.LittleEndian, int64(len(v)))
			for _, pts := range v {
				binary.Write(h, binary.LittleEndian, int64(len(pts)))
				binary.Write(h, binary.LittleEndian, pts)
			}
		case int:
			binary.Write(h, binary.LittleEndian, int64(v))
		case [][2]int:
			binary.Write(h, binary.LittleEndian, int64(len(v)))
			for _, r := range v {
				binary.Write(h, binary.LittleEndian, [2]int64{int64(r[0]), int64(r[1])})
			}
		case []MMTile:
			binary.Write(h, binary.LittleEndian, int64(len(v)))
			for _, t := range v {
				binary.Write(h, binary.LittleEndian, [4]int64{int64(t.RowLo), int64(t.RowHi), int64(t.KLo), int64(t.KHi)})
			}
		default:
			if err := binary.Write(h, binary.LittleEndian, v); err != nil {
				panic(fmt.Sprintf("pinDigest: %T: %v", v, err))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// currentInputs generates every HWL-Small input — whole, and shard 1/2 of
// the shardable apps — for seeds 1 and 2, keyed app/shard/seed.
func currentInputs(t *testing.T) map[string]string {
	got := map[string]string{}
	for _, s := range []int64{1, 2} {
		for _, app := range AppNames() {
			in, err := Input(app, HWL, Small)
			if err != nil {
				t.Fatal(err)
			}
			pr := in.Params
			key := func(shard string) string { return fmt.Sprintf("%s/%s/seed%d", app, shard, s) }
			switch app {
			case "WC":
				got[key("whole")] = pinDigest(generateText(pr.Bytes, s, ShardSpec{Index: 0, Count: 1}, 3))
				got[key("1of2")] = pinDigest(generateText(pr.Bytes, s, ShardSpec{Index: 1, Count: 2}, 3))
				// SM has no Table I row; it runs on WC's bytes.
				got[fmt.Sprintf("SM/whole/seed%d", s)] = pinDigest(GenerateSMText(pr.Bytes, s))
			case "HG":
				got[key("whole")] = pinDigest(generatePixels(pr.Bytes, s, ShardSpec{Index: 0, Count: 1}, 3))
				got[key("1of2")] = pinDigest(generatePixels(pr.Bytes, s, ShardSpec{Index: 1, Count: 2}, 3))
			case "LR":
				got[key("whole")] = pinDigest(GenerateLRPoints(pr.Points, s))
			case "KM":
				km := GenerateKMeans(pr.Points, pr.Dims, pr.K, s)
				got[key("whole")] = pinDigest(km.Points, km.Centroids, km.Dims, km.K, km.Splits)
			case "PCA":
				pca := GeneratePCA(pr.N, s)
				got[key("whole")] = pinDigest(pca.Matrix, pca.Mean, pca.N, pca.Splits, pca.PairIndex)
			case "MM":
				mm := GenerateMM(pr.RowsA, pr.Inner, pr.ColsB, s)
				got[key("whole")] = pinDigest(mm.A, mm.B, mm.Rows, mm.Inner, mm.Cols, mm.Splits)
			}
		}
	}
	return got
}

// TestInputBytesPinned: the generated inputs hash to the digests pinned
// above. Identical bytes are the contract of any generator change; a
// mismatch prints the whole current map (paste it only for an intended
// change of the inputs).
func TestInputBytesPinned(t *testing.T) {
	requirePinned(t, "generated inputs", pinnedInputs, currentInputs(t))
}

// requirePinned fails unless got holds exactly the pinned entries, printing
// the whole current map on a mismatch.
func requirePinned(t *testing.T, what string, pinned, got map[string]string) {
	t.Helper()
	var bad []string
	for k, v := range got {
		if pinned[k] != v {
			bad = append(bad, k)
		}
	}
	if len(bad) == 0 && len(got) == len(pinned) {
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
	t.Fatalf("%s differ from the pinned digests at %v (%d pinned, %d now); current map:\n%s",
		what, bad, len(pinned), len(got), b.String())
}

// TestBoundedDrawsMatchIntn: HG's and LR's constant-divisor draws are the
// rand.Intn draws they replaced, on sizes and seeds the pins do not cover
// (a partial last split, a partial last pixel).
func TestBoundedDrawsMatchIntn(t *testing.T) {
	for _, s := range []int64{3, 4} {
		px := generatePixels(2*hgSplitBytes+125, s, ShardSpec{Index: 0, Count: 1}, 2)
		src := stats.NewStream(s, "histogram")
		rng := rand.New(src)
		for i, b := range px {
			src.Seek(i)
			for j := 0; j+2 < len(b); j += 3 {
				if want := [3]byte{byte(rng.Intn(200)), byte(rng.Intn(256)), byte(55 + rng.Intn(200))}; [3]byte(b[j:j+3]) != want {
					t.Fatalf("seed %d split %d pixel %d: %v, rand.Intn drew %v", s, i, j/3, b[j:j+3], want)
				}
			}
		}
		ref := stats.Rng(s, "linreg")
		for i, split := range GenerateLRPoints(lrSplitPoints+77, s) {
			for j, p := range split {
				x := ref.Intn(256)
				y := min(max(int(0.7*float64(x))+30+ref.Intn(21)-10, 0), 255)
				if p != (LRPoint{X: uint8(x), Y: uint8(y)}) {
					t.Fatalf("seed %d split %d point %d: %v, rand.Intn drew (%d, %d)", s, i, j, p, x, y)
				}
			}
		}
	}
}

// BenchmarkGenerate times the generators at HWL-Large on one goroutine —
// WC and HG as shard 0/2, what one `-budget 1` cluster worker builds per job.
func BenchmarkGenerate(b *testing.B) {
	half := ShardSpec{Index: 0, Count: 2}
	for _, app := range []string{"WC", "HG", "LR"} {
		in, err := Input(app, HWL, Large)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(app, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				switch app {
				case "WC":
					generateText(in.Params.Bytes, 1, half, 1)
				case "HG":
					generatePixels(in.Params.Bytes, 1, half, 1)
				case "LR":
					GenerateLRPoints(in.Params.Points, 1)
				}
			}
		})
	}
}

// pinnedOutputs are output digests and key counts at HWL-Small and
// HWL-Large, seeds 1 and 2. MM's were computed with the per-cell
// dot-product kernel the row-streaming kernel replaced: integer sums are
// exact in any order, so any MM kernel must produce them. WC's (on both of
// its containers) and SM's were computed while the table hasher was still
// the digest's FNV-1a: the digest is a wire format, and a faster table hash
// or tokeniser must leave it byte-identical.
var pinnedOutputs = map[string]string{
	"MM/Large/seed1": "9ffaa6756d6b1a89/262144",
	"MM/Large/seed2": "024d9e7b7e3102ad/262144",
	"MM/Small/seed1": "ba0b8c59d1ae549c/65536",
	"MM/Small/seed2": "fc32b7edc150ef08/65536",

	"SM/Large/seed1":            "c10b3311f6efbec7/2",
	"SM/Large/seed2":            "3be9d7009d6d1fce/2",
	"SM/Small/seed1":            "a0936615e30c5bbf/2",
	"SM/Small/seed2":            "c1231922b45b5651/2",
	"WC/fixed-hash/Large/seed1": "64c3aa5a93f4bfbf/4995",
	"WC/fixed-hash/Large/seed2": "97e1146216e8d424/4991",
	"WC/fixed-hash/Small/seed1": "7b1bdd1f12670a90/4987",
	"WC/fixed-hash/Small/seed2": "8ccbabb92defd264/4978",
	"WC/hash/Large/seed1":       "64c3aa5a93f4bfbf/4995",
	"WC/hash/Large/seed2":       "97e1146216e8d424/4991",
	"WC/hash/Small/seed1":       "7b1bdd1f12670a90/4987",
	"WC/hash/Small/seed2":       "8ccbabb92defd264/4978",
}

// TestOutputDigestPinned: MM's, WC's and SM's RAMR outputs hash to the
// pinned digests.
func TestOutputDigestPinned(t *testing.T) {
	got := map[string]string{}
	for _, c := range []SizeClass{Small, Large} {
		for _, s := range []int64{1, 2} {
			for _, r := range []struct {
				name, app, input string
				kind             container.Kind
			}{
				{"MM", "MM", "MM", DefaultContainer("MM")},
				{"WC/hash", "WC", "WC", container.KindHash},
				{"WC/fixed-hash", "WC", "WC", container.KindFixedHash},
				{"SM", "SM", "WC", container.KindHash}, // SM has no Table I row; it runs on WC's bytes
			} {
				in, err := Input(r.input, HWL, c)
				if err != nil {
					t.Fatal(err)
				}
				job, err := NewJobParams(r.app, in.Params, r.kind, s)
				if err != nil {
					t.Fatal(err)
				}
				ri, err := job.Run(EngineRAMR, cfg())
				if err != nil {
					t.Fatal(err)
				}
				got[fmt.Sprintf("%s/%v/seed%d", r.name, c, s)] = fmt.Sprintf("%016x/%d", ri.Digest, ri.Pairs)
			}
		}
	}
	requirePinned(t, "outputs", pinnedOutputs, got)
}
