package workloads

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestShardSpecValidate(t *testing.T) {
	for _, tc := range []struct {
		sh ShardSpec
		ok bool
	}{
		{ShardSpec{Index: 0, Count: 1}, true},
		{ShardSpec{Index: 3, Count: 4}, true},
		{ShardSpec{Index: 4, Count: 4}, false},
		{ShardSpec{Index: -1, Count: 4}, false},
		{ShardSpec{Index: 0, Count: 0}, false},
	} {
		if err := tc.sh.Validate(); (err == nil) != tc.ok {
			t.Errorf("ShardSpec%+v.Validate() = %v, want ok=%v", tc.sh, err, tc.ok)
		}
	}
}

// TestShardSplitsPartition pins the generic partition synth applies to its
// split ranges: the shards partition the split list — every split lands in
// exactly one shard, in order.
func TestShardSplitsPartition(t *testing.T) {
	splits := make([]int, 17)
	for i := range splits {
		splits[i] = i
	}
	for _, count := range []int{1, 2, 3, 5, 17, 20} {
		seen := map[int]int{}
		for idx := 0; idx < count; idx++ {
			for _, s := range ShardSplits(splits, ShardSpec{Index: idx, Count: count}) {
				seen[s]++
			}
		}
		if len(seen) != len(splits) {
			t.Fatalf("count=%d: shards cover %d of %d splits", count, len(seen), len(splits))
		}
		for s, n := range seen {
			if n != 1 {
				t.Fatalf("count=%d: split %d appears in %d shards", count, s, n)
			}
		}
	}
}

// TestShardMergeMatchesSingleNode is the cluster tier's core contract at
// the workloads layer: running every shard separately, merging the
// partials and re-folding the digest reproduces the single-node RunInfo
// bit for bit — same pair count, same output digest — for every shard
// count, WC and HG alike.
func TestShardMergeMatchesSingleNode(t *testing.T) {
	for _, app := range []string{"WC", "HG"} {
		full, err := NewJobParams(app, smallParams(app), DefaultContainer(app), seed)
		if err != nil {
			t.Fatal(err)
		}
		fi, err := full.Run(EngineRAMR, cfg())
		if err != nil {
			t.Fatal(err)
		}
		pi, err := full.Run(EnginePhoenix, cfg())
		if err != nil {
			t.Fatal(err)
		}
		if pi.Pairs != fi.Pairs || pi.Digest != fi.Digest {
			t.Fatalf("%s: Phoenix++ (%d pairs, %016x), RAMR (%d pairs, %016x)", app, pi.Pairs, pi.Digest, fi.Pairs, fi.Digest)
		}
		for _, count := range []int{1, 2, 3, 7} {
			parts := make([]*Partial, count)
			for i := 0; i < count; i++ {
				sj, err := NewShardJobParams(app, smallParams(app), DefaultContainer(app), seed,
					ShardSpec{Index: i, Count: count})
				if err != nil {
					t.Fatal(err)
				}
				si, err := sj.Run(EngineRAMR, cfg())
				if err != nil {
					t.Fatalf("%s shard %d/%d: %v", app, i, count, err)
				}
				if si.Partial == nil {
					t.Fatalf("%s shard %d/%d: no partial exported", app, i, count)
				}
				parts[i] = si.Partial
			}
			merged, err := MergePartials(parts)
			if err != nil {
				t.Fatal(err)
			}
			pairs, digest, err := merged.Summary()
			if err != nil {
				t.Fatal(err)
			}
			if pairs != fi.Pairs || digest != fi.Digest {
				t.Fatalf("%s sharded %d ways: merged (%d pairs, %016x), single-node (%d pairs, %016x)",
					app, count, pairs, digest, fi.Pairs, fi.Digest)
			}
		}
	}
}

// checkSplitAddressable is TestSplitAddressable for one generator: whatever
// the shard count, shard k's j-th split is split k+j*count of the unsharded
// input, element for element, and the shards together hold every split once.
func checkSplitAddressable[T any](t *testing.T, app string, splitBytes int, gen func(n int, sh ShardSpec) []T, equal func(a, b T) bool) {
	t.Helper()
	in, err := Input(app, HWL, Small)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, splitBytes - 1, splitBytes, in.Params.Bytes} {
		full := gen(n, ShardSpec{Index: 0, Count: 1})
		// The split count is known before any split exists (HG first drops
		// a trailing partial pixel, which moves the count at none of these
		// sizes).
		if want := (n + splitBytes - 1) / splitBytes; len(full) != want {
			t.Fatalf("%s n=%d: %d splits, want %d", app, n, len(full), want)
		}
		for _, count := range []int{1, 2, 3, 7, len(full) + 5} {
			total := 0
			for k := 0; k < count; k++ {
				sh := ShardSpec{Index: k, Count: count}
				own := gen(n, sh)
				total += len(own)
				for j, s := range own {
					if i := k + j*count; i >= len(full) || !equal(s, full[i]) {
						t.Fatalf("%s n=%d shard %s: split %d is not split %d of the unsharded input", app, n, sh, j, i)
					}
				}
				if len(own) > 0 {
					continue
				}
				// A shard that owns nothing still settles: an instant,
				// empty run with an empty partial to merge.
				job, err := NewShardJobParams(app, Params{Bytes: n}, DefaultContainer(app), seed, sh)
				if err != nil {
					t.Fatal(err)
				}
				info, err := job.Run(EngineRAMR, cfg())
				if err != nil || info.Wall != 0 || info.Pairs != 0 || info.Partial == nil || info.Partial.Len() != 0 {
					t.Fatalf("%s n=%d empty shard %s settled as %+v, %v", app, n, sh, info, err)
				}
			}
			if total != len(full) {
				t.Fatalf("%s n=%d: %d shards hold %d splits, the input has %d", app, n, count, total, len(full))
			}
		}
	}
}

// TestSplitAddressable pins the property a shard's build rests on: split i
// of a generated input is a function of (seed, app, i) alone, so the splits
// a shard generates for itself are the ones the unsharded job maps.
func TestSplitAddressable(t *testing.T) {
	checkSplitAddressable(t, "WC", wcSplitBytes,
		func(n int, sh ShardSpec) []string { return generateText(n, seed, sh) },
		func(a, b string) bool { return a == b })
	checkSplitAddressable(t, "HG", hgSplitBytes,
		func(n int, sh ShardSpec) [][]byte { return generatePixels(n, seed, sh) },
		bytes.Equal)
	if a, b := GenerateText(40_000, seed), generateText(40_000, seed, ShardSpec{Index: 0, Count: 1}); !reflect.DeepEqual(a, b) {
		t.Fatal("GenerateText is not the 0/1 shard")
	}
	if a, b := GeneratePixels(40_000, seed), generatePixels(40_000, seed, ShardSpec{Index: 0, Count: 1}); !reflect.DeepEqual(a, b) {
		t.Fatal("GeneratePixels is not the 0/1 shard")
	}
}

// TestShardBuildIsProportional: building shard 0/2 of a Large input
// allocates about half of what building the whole input does — counted in
// bytes, which repeat exactly, not timed. The bound leaves room for what
// every shard pays in full (WC's vocabulary, the split list).
func TestShardBuildIsProportional(t *testing.T) {
	built := func(app string, sh ShardSpec) uint64 {
		in, err := Input(app, HWL, Large)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		job, err := NewShardJobParams(app, in.Params, DefaultContainer(app), seed, sh)
		runtime.ReadMemStats(&after)
		if err != nil || job == nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, app := range []string{"WC", "HG"} {
		whole, half := built(app, ShardSpec{Index: 0, Count: 1}), built(app, ShardSpec{Index: 0, Count: 2})
		if float64(half) > 0.6*float64(whole) {
			t.Errorf("%s Large: shard 0/2 allocated %d bytes to build, the whole input %d (%.2fx, want <= 0.6x)",
				app, half, whole, float64(half)/float64(whole))
		}
	}
}

func TestMergePartialsErrors(t *testing.T) {
	if _, err := MergePartials(nil); err == nil {
		t.Error("merging zero partials should fail")
	}
	if _, err := MergePartials([]*Partial{nil, nil}); err == nil {
		t.Error("merging only nil partials should fail")
	}
	_, err := MergePartials([]*Partial{
		{App: "WC", Str: map[string]int64{"a": 1}},
		{App: "HG", Int: map[int]uint64{1: 1}},
	})
	if err == nil || !strings.Contains(err.Error(), "WC") {
		t.Errorf("app mismatch should fail naming the apps, got %v", err)
	}
	if _, err := MergePartials([]*Partial{
		{App: "WC", Str: map[string]int64{"a": 1}, Int: map[int]uint64{1: 1}},
	}); err == nil {
		t.Error("a partial with both key spaces populated should fail")
	}
}

// TestMergePartialsKeySums pins the merge semantics on a hand-checkable
// case: key-wise sums, absent keys passing through.
func TestMergePartialsKeySums(t *testing.T) {
	merged, err := MergePartials([]*Partial{
		{App: "WC", Str: map[string]int64{"a": 2, "b": 1}},
		nil, // a skipped shard slot must not derail the fold
		{App: "WC", Str: map[string]int64{"a": 3, "c": 7}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"a": 5, "b": 1, "c": 7}
	if len(merged.Str) != len(want) {
		t.Fatalf("merged %v, want %v", merged.Str, want)
	}
	for k, v := range want {
		if merged.Str[k] != v {
			t.Errorf("merged[%q] = %d, want %d", k, merged.Str[k], v)
		}
	}
}

func TestShardableApps(t *testing.T) {
	for _, app := range ShardableApps() {
		if !Shardable(app) {
			t.Errorf("ShardableApps lists %s but Shardable rejects it", app)
		}
	}
	for _, app := range []string{"KM", "LR", "MM", "PCA", "SM", "nope"} {
		if Shardable(app) {
			t.Errorf("%s must not be shardable (inexact or non-commutative merge)", app)
		}
	}
	if _, err := NewShardJobParams("KM", smallParams("KM"), DefaultContainer("KM"), seed,
		ShardSpec{Index: 0, Count: 2}); err == nil {
		t.Error("sharding KM should fail")
	}
}

// FuzzMergePartials: MergePartials is associative and commutative over
// arbitrary well-formed partials — any order and any grouping of the same
// shards merges to one container, and Summary of it is one digest. That is
// the property byte-identical sharding rests on: the coordinator merges
// partials in arrival order, and a reshard changes which worker ran what.
func FuzzMergePartials(f *testing.F) {
	f.Add(uint8(0), []byte("a\x01b\x02a\x03"))
	f.Add(uint8(1), []byte{0, 0, 1, 255, 2, 7, 0, 9, 1, 1})
	f.Add(uint8(2), []byte{})
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		app := ShardableApps()[int(sel)%len(ShardableApps())]
		parts := make([]*Partial, 3)
		for i := range parts {
			parts[i] = &Partial{App: app}
			if app == "WC" {
				parts[i].Str = map[string]int64{}
			} else {
				parts[i].Int = map[int]uint64{}
			}
		}
		// Each 3-byte record is (shard, key, value); values are spread over
		// the whole 64-bit range so sums wrap.
		for ; len(data) >= 3; data = data[3:] {
			p, v := parts[int(data[0])%len(parts)], uint64(data[2])*0x9e3779b97f4a7c15
			if app == "WC" {
				p.Str[string(data[1:2])] += int64(v)
			} else {
				p.Int[int(data[1])] += v
			}
		}
		merge := func(ps ...*Partial) *Partial {
			m, err := MergePartials(ps)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		a, b, c := parts[0], parts[1], parts[2]
		want := merge(a, b, c)
		wantPairs, wantDigest, err := want.Summary()
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string]*Partial{
			"c,b,a":   merge(c, b, a),
			"b,a,c":   merge(b, a, c),
			"(a,b),c": merge(merge(a, b), c),
			"a,(b,c)": merge(a, merge(b, c)),
			"(c,a),b": merge(merge(c, a), b),
		} {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s merged %s = %+v, a,b,c = %+v", app, name, got, want)
			}
			if pairs, digest, err := got.Summary(); err != nil || pairs != wantPairs || digest != wantDigest {
				t.Fatalf("%s merged %s summarises to (%d, %016x, %v), a,b,c to (%d, %016x)",
					app, name, pairs, digest, err, wantPairs, wantDigest)
			}
		}
	})
}
