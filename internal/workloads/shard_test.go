package workloads

import (
	"bytes"
	"encoding/json"
	"maps"
	"reflect"
	"runtime"
	"slices"
	"strconv"
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
		ref, err := full.Run(EngineReference, cfg())
		if err != nil {
			t.Fatal(err)
		}
		if ref.Pairs != fi.Pairs || ref.Digest != fi.Digest {
			t.Fatalf("%s: reference (%d pairs, %016x), RAMR (%d pairs, %016x)", app, ref.Pairs, ref.Digest, fi.Pairs, fi.Digest)
		}
		for _, count := range []int{1, 2, 3, 7} {
			parts := make([]*Partial, count)
			for i := 0; i < count; i++ {
				sj, err := Build(app, smallParams(app), DefaultContainer(app), seed,
					&ShardSpec{Index: i, Count: count}, 0)
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

// buildWidths are the goroutine counts the split-addressable tests build
// at: serial, the common grants, and more goroutines than some shards own
// splits.
var buildWidths = []int{1, 2, 3, 7}

// checkSplitAddressable is TestSplitAddressable for one generator: whatever
// the shard count and build width, shard k's j-th split is split k+j*count
// of the serially built unsharded input, element for element, and the
// shards together hold every split once.
func checkSplitAddressable[T any](t *testing.T, app string, splitBytes int, gen func(n int, sh ShardSpec, width int) []T, equal func(a, b T) bool) {
	t.Helper()
	in, err := Input(app, HWL, Small)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, splitBytes - 1, splitBytes, in.Params.Bytes} {
		full := gen(n, ShardSpec{Index: 0, Count: 1}, 1)
		// The split count is known before any split exists (HG first drops
		// a trailing partial pixel, which moves the count at none of these
		// sizes).
		if want := (n + splitBytes - 1) / splitBytes; len(full) != want {
			t.Fatalf("%s n=%d: %d splits, want %d", app, n, len(full), want)
		}
		for _, width := range buildWidths {
			for _, count := range []int{1, 2, 3, 7, len(full) + 5} {
				total := 0
				for k := 0; k < count; k++ {
					sh := ShardSpec{Index: k, Count: count}
					own := gen(n, sh, width)
					total += len(own)
					for j, s := range own {
						if i := k + j*count; i >= len(full) || !equal(s, full[i]) {
							t.Fatalf("%s n=%d width %d shard %s: split %d is not split %d of the unsharded input", app, n, width, sh, j, i)
						}
					}
					if len(own) > 0 {
						continue
					}
					// A shard that owns nothing still settles: an instant,
					// empty run with an empty partial to merge.
					job, err := Build(app, Params{Bytes: n}, DefaultContainer(app), seed, &sh, 0)
					if err != nil {
						t.Fatal(err)
					}
					info, err := job.Run(EngineRAMR, cfg())
					if err != nil || info.Wall != 0 || info.Pairs != 0 || info.Partial == nil || info.Partial.Len() != 0 {
						t.Fatalf("%s n=%d empty shard %s settled as %+v, %v", app, n, sh, info, err)
					}
				}
				if total != len(full) {
					t.Fatalf("%s n=%d width %d: %d shards hold %d splits, the input has %d", app, n, width, count, total, len(full))
				}
			}
		}
	}
}

// TestSplitAddressable pins the property a shard's build and a parallel
// build rest on: split i of a generated input is a function of (seed, app,
// i) alone, so the splits a shard generates for itself, on any number of
// goroutines, are the ones the serially built unsharded job maps.
func TestSplitAddressable(t *testing.T) {
	checkSplitAddressable(t, "WC", wcSplitBytes,
		func(n int, sh ShardSpec, width int) []string { return generateText(n, seed, sh, width) },
		func(a, b string) bool { return a == b })
	checkSplitAddressable(t, "HG", hgSplitBytes,
		func(n int, sh ShardSpec, width int) [][]byte { return generatePixels(n, seed, sh, width) },
		bytes.Equal)
	if a, b := GenerateText(40_000, seed), generateText(40_000, seed, ShardSpec{Index: 0, Count: 1}, 1); !reflect.DeepEqual(a, b) {
		t.Fatal("GenerateText is not the serial 0/1 shard")
	}
	if a, b := GeneratePixels(40_000, seed), generatePixels(40_000, seed, ShardSpec{Index: 0, Count: 1}, 1); !reflect.DeepEqual(a, b) {
		t.Fatal("GeneratePixels is not the serial 0/1 shard")
	}
}

// TestTextSplitsAreExactSize: a WC-Large build allocates at most 1.05x its
// bytes — the splits take no slack beyond a word per split, and a parallel
// build no more than a serial one. Counted in TotalAlloc bytes, not timed.
func TestTextSplitsAreExactSize(t *testing.T) {
	in, err := Input("WC", HWL, Large)
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range buildWidths {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		splits := generateText(in.Params.Bytes, seed, ShardSpec{Index: 0, Count: 1}, width)
		runtime.ReadMemStats(&after)
		size := 0
		for _, s := range splits {
			size += len(s)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; float64(alloc) > 1.05*float64(size) {
			t.Errorf("width %d: building %d bytes of text allocated %d (%.3fx, want <= 1.05x)",
				width, size, alloc, float64(alloc)/float64(size))
		}
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
		job, err := Build(app, in.Params, DefaultContainer(app), seed, &sh, 0)
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
		{App: "WC", Words: []string{"a"}, Counts: []int64{1}},
		{App: "HG", Keys: []int{1}, Values: []uint64{1}},
	})
	if err == nil || !strings.Contains(err.Error(), "WC") {
		t.Errorf("app mismatch should fail naming the apps, got %v", err)
	}
	for name, p := range map[string]*Partial{
		"both key spaces":  {App: "WC", Words: []string{"a"}, Counts: []int64{1}, Keys: []int{1}, Values: []uint64{1}},
		"words in HG":      {App: "HG", Words: []string{"a"}, Counts: []int64{1}},
		"short counts":     {App: "WC", Words: []string{"a", "b"}, Counts: []int64{1}},
		"unsorted words":   {App: "WC", Words: []string{"b", "a"}, Counts: []int64{1, 1}},
		"duplicate key":    {App: "SYNTH", Keys: []int{3, 3}, Values: []uint64{1, 1}},
		"word with space":  {App: "WC", Words: []string{"a b"}, Counts: []int64{1}},
		"empty word":       {App: "WC", Words: []string{""}, Counts: []int64{1}},
		"unsorted int key": {App: "HG", Keys: []int{2, 1}, Values: []uint64{1, 1}},
	} {
		if _, err := MergePartials([]*Partial{p}); err == nil {
			t.Errorf("a partial with %s should fail", name)
		}
	}
}

// TestMergePartialsKeySums pins the merge semantics on a hand-checkable
// case: key-wise sums, absent keys passing through, the result sorted.
func TestMergePartialsKeySums(t *testing.T) {
	merged, err := MergePartials([]*Partial{
		{App: "WC", Words: []string{"a", "b"}, Counts: []int64{2, 1}},
		nil, // a skipped shard slot must not derail the fold
		{App: "WC", Words: []string{"a", "c"}, Counts: []int64{3, 7}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := &Partial{App: "WC", Words: []string{"a", "b", "c"}, Counts: []int64{5, 1, 7}}
	if !reflect.DeepEqual(merged, want) {
		t.Fatalf("merged %+v, want %+v", merged, want)
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
	if _, err := Build("KM", smallParams("KM"), DefaultContainer("KM"), seed,
		&ShardSpec{Index: 0, Count: 2}, 0); err == nil {
		t.Error("sharding KM should fail")
	}
}

// modelPartials reads fuzz data as 3-byte records (shard, key, value)
// into three shards' key→value maps — the model — with values spread over
// the whole 64-bit range so sums wrap, and returns the maps and the
// partials holding them as sorted columns. A WC key is one letter of
// a..p, an int key one byte.
func modelPartials(app string, data []byte) ([]map[string]uint64, []*Partial) {
	models := make([]map[string]uint64, 3)
	for i := range models {
		models[i] = map[string]uint64{}
	}
	key := func(b byte) string {
		if app == "WC" {
			return string(rune('a' + b%16))
		}
		return strconv.Itoa(int(b))
	}
	for ; len(data) >= 3; data = data[3:] {
		models[int(data[0])%len(models)][key(data[1])] += uint64(data[2]) * 0x9e3779b97f4a7c15
	}
	parts := make([]*Partial, len(models))
	for i, m := range models {
		parts[i] = columnsOf(app, m)
	}
	return models, parts
}

// columnsOf is the partial holding model m: its keys sorted, WC's as
// strings, the others' as ints.
func columnsOf(app string, m map[string]uint64) *Partial {
	p := &Partial{App: app}
	if app == "WC" {
		p.Words = slices.Sorted(maps.Keys(m))
		for _, w := range p.Words {
			p.Counts = append(p.Counts, int64(m[w]))
		}
		return p
	}
	for k := range m {
		n, _ := strconv.Atoi(k)
		p.Keys = append(p.Keys, n)
	}
	slices.Sort(p.Keys)
	for _, k := range p.Keys {
		p.Values = append(p.Values, m[strconv.Itoa(k)])
	}
	return p
}

// FuzzMergePartials: MergePartials of arbitrary well-formed partials is
// the key-wise sum a map model computes, as sorted columns, in any order
// and any grouping of the same shards, and Summary of it is one digest.
// That is the property byte-identical sharding rests on: the coordinator
// merges partials in arrival order, and a reshard changes which worker ran
// what.
func FuzzMergePartials(f *testing.F) {
	f.Add(uint8(0), []byte("a\x01b\x02a\x03"))
	f.Add(uint8(1), []byte{0, 0, 1, 255, 2, 7, 0, 9, 1, 1})
	f.Add(uint8(2), []byte{})
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		app := ShardableApps()[int(sel)%len(ShardableApps())]
		models, parts := modelPartials(app, data)
		sum := map[string]uint64{}
		for _, m := range models {
			for k, v := range m {
				sum[k] += v
			}
		}
		want := columnsOf(app, sum)
		merge := func(ps ...*Partial) *Partial {
			m, err := MergePartials(ps)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		a, b, c := parts[0], parts[1], parts[2]
		wantPairs, wantDigest, err := want.Summary()
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string]*Partial{
			"a,b,c":   merge(a, b, c),
			"c,b,a":   merge(c, b, a),
			"b,a,c":   merge(b, a, c),
			"(a,b),c": merge(merge(a, b), c),
			"a,(b,c)": merge(a, merge(b, c)),
			"(c,a),b": merge(merge(c, a), b),
		} {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s merged %s = %+v, the model's sum %+v", app, name, got, want)
			}
			if pairs, digest, err := got.Summary(); err != nil || pairs != wantPairs || digest != wantDigest {
				t.Fatalf("%s merged %s summarises to (%d, %016x, %v), the model to (%d, %016x)",
					app, name, pairs, digest, err, wantPairs, wantDigest)
			}
		}
	})
}

// FuzzPartialWire: decoding arbitrary bytes as a partial never panics and
// accepts only well-formed columns — of equal length, keys strictly
// ascending, WC words non-empty and free of spaces — and what it accepts,
// or any partial a model builds, survives an encode and a decode whole.
func FuzzPartialWire(f *testing.F) {
	f.Add(uint8(0), []byte(`{"app":"WC","words":"a b","counts":"2 1"}`))
	f.Add(uint8(1), []byte(`{"app":"HG","keys":"1 2 9","values":"3 18446744073709551615 0"}`))
	f.Add(uint8(2), []byte(`{"app":"SYNTH","keys":"2 1","values":"1 1"}`))
	f.Add(uint8(0), []byte(`{"app":"WC","words":"a  b","counts":"1 1 1"}`))
	f.Add(uint8(0), []byte(`{"app":"WC","words":"a a","counts":"1 -1"}`))
	f.Add(uint8(1), []byte(`{"app":"HG","keys":"1","values":"-1"}`))
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		var p Partial
		if json.Unmarshal(data, &p) == nil {
			if len(p.Words) != len(p.Counts) || len(p.Keys) != len(p.Values) {
				t.Fatalf("accepted columns of unequal length: %+v", p)
			}
			for i, w := range p.Words {
				if w == "" || strings.Contains(w, " ") || i > 0 && p.Words[i-1] >= w {
					t.Fatalf("accepted word %d %q of %q", i, w, p.Words)
				}
			}
			for i := 1; i < len(p.Keys); i++ {
				if p.Keys[i-1] >= p.Keys[i] {
					t.Fatalf("accepted keys %v", p.Keys)
				}
			}
			roundTrip(t, &p)
		}
		app := ShardableApps()[int(sel)%len(ShardableApps())]
		_, parts := modelPartials(app, data)
		for _, p := range parts {
			roundTrip(t, p)
		}
	})
}

// roundTrip encodes p, decodes it and checks the decode is p.
func roundTrip(t *testing.T, p *Partial) {
	t.Helper()
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var q Partial
	if err := json.Unmarshal(b, &q); err != nil {
		t.Fatalf("%+v encodes to %s, which does not decode: %v", p, b, err)
	}
	if q.App != p.App || !slices.Equal(q.Words, p.Words) || !slices.Equal(q.Counts, p.Counts) ||
		!slices.Equal(q.Keys, p.Keys) || !slices.Equal(q.Values, p.Values) {
		t.Fatalf("%+v round-trips to %+v", p, q)
	}
}

// TestShardPartialDoesNotPinInput: a shard's partial outlives its job — the
// memo cache and the retained records keep it — so it must hold its own
// words, not slices of the text they were mapped from. With the job gone
// and only its RunInfo alive, the live heap is a vocabulary, not a corpus.
func TestShardPartialDoesNotPinInput(t *testing.T) {
	in, err := Input("WC", HWL, Small)
	if err != nil {
		t.Fatal(err)
	}
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	info := func() *RunInfo {
		job, err := Build("WC", in.Params, DefaultContainer("WC"), seed, &ShardSpec{Index: 0, Count: 1}, 0)
		if err != nil {
			t.Fatal(err)
		}
		info, err := job.Run(EngineRAMR, cfg())
		if err != nil {
			t.Fatal(err)
		}
		return info
	}()
	after := live()
	if info.Partial.Len() == 0 {
		t.Fatal("shard exported an empty partial")
	}
	if held := int64(after) - int64(before); held > int64(in.Params.Bytes)/8 {
		t.Errorf("a WC partial of %d words holds %d bytes live, input was %d bytes", info.Partial.Len(), held, in.Params.Bytes)
	}
}
