package container

import (
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"ramr/internal/stats"
)

var sum = func(a, b int) int { return a + b }

// updatable is a container with its one-pair Update, which every
// implementation keeps and the runtimes no longer call through Container.
type updatable[K comparable, V any] interface {
	Container[K, V]
	Update(k K, v V, combine Combine[V])
}

// kindsOf builds one container of every implementation for int keys and V
// values, the fixed-hash one hashed by HashInt.
func kindsOf[V any](keyRange int) map[Kind]updatable[int, V] {
	return map[Kind]updatable[int, V]{
		KindFixedArray: NewFixedArray[V](keyRange),
		KindFixedHash:  NewFixedHash[int, V](keyRange, HashInt),
		KindHash:       NewHash[int, V](),
	}
}

func TestUpdateGetAcrossKinds(t *testing.T) {
	for kind, c := range kindsOf[int](100) {
		if c.Kind() != kind {
			t.Fatalf("%v reports kind %v", kind, c.Kind())
		}
		if _, ok := c.Get(5); ok {
			t.Fatalf("%v: Get on empty container succeeded", kind)
		}
		c.Update(5, 3, sum)
		c.Update(5, 4, sum)
		c.Update(7, 1, sum)
		if v, ok := c.Get(5); !ok || v != 7 {
			t.Fatalf("%v: Get(5) = (%d,%v), want 7", kind, v, ok)
		}
		if c.Len() != 2 {
			t.Fatalf("%v: Len = %d, want 2", kind, c.Len())
		}
		c.Reset()
		if c.Len() != 0 {
			t.Fatalf("%v: Len after Reset = %d", kind, c.Len())
		}
		if _, ok := c.Get(5); ok {
			t.Fatalf("%v: Get after Reset succeeded", kind)
		}
		// Reusable after reset.
		c.Update(5, 9, sum)
		if v, _ := c.Get(5); v != 9 {
			t.Fatalf("%v: reuse after Reset broken", kind)
		}
	}
}

func TestIterateVisitsAll(t *testing.T) {
	for kind, c := range kindsOf[int](64) {
		want := map[int]int{}
		for k := 0; k < 64; k += 3 {
			c.Update(k, k*10, sum)
			want[k] = k * 10
		}
		got := map[int]int{}
		c.Iterate(func(k, v int) bool {
			got[k] = v
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("%v: iterated %d keys, want %d", kind, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("%v: key %d = %d, want %d", kind, k, got[k], v)
			}
		}
		// Early termination.
		n := 0
		c.Iterate(func(int, int) bool { n++; return n < 3 })
		if n != 3 {
			t.Fatalf("%v: early-stop iterate visited %d", kind, n)
		}
	}
}

// TestQuickAgainstMapModel drives random update sequences through every
// container and compares with a plain map.
func TestQuickAgainstMapModel(t *testing.T) {
	const keyRange = 50
	f := func(keys []uint8, vals []int8) bool {
		cs := kindsOf[int](keyRange)
		model := map[int]int{}
		for i, kb := range keys {
			if i >= len(vals) {
				break
			}
			k := int(kb) % keyRange
			v := int(vals[i])
			for _, c := range cs {
				c.Update(k, v, sum)
			}
			if old, ok := model[k]; ok {
				model[k] = old + v
			} else {
				model[k] = v
			}
		}
		for _, c := range cs {
			if c.Len() != len(model) {
				return false
			}
			for k, v := range model {
				got, ok := c.Get(k)
				if !ok || got != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeEquivalence(t *testing.T) {
	for kind := range kindsOf[int](32) {
		mk := func() updatable[int, int] { return kindsOf[int](32)[kind] }
		a, b := mk(), mk()
		for k := 0; k < 32; k++ {
			if k%2 == 0 {
				a.Update(k, k, sum)
			}
			if k%3 == 0 {
				b.Update(k, 100+k, sum)
			}
		}
		Merge(a, b, sum)
		for k := 0; k < 32; k++ {
			want, present := 0, false
			if k%2 == 0 {
				want, present = k, true
			}
			if k%3 == 0 {
				want, present = want+100+k, true
			}
			got, ok := a.Get(k)
			if ok != present || got != want {
				t.Fatalf("%v: merged key %d = (%d,%v), want (%d,%v)", kind, k, got, ok, want, present)
			}
		}
	}
}

func TestFixedArrayOrderAndBounds(t *testing.T) {
	a := NewFixedArray[int](10)
	a.Update(9, 1, sum)
	a.Update(0, 2, sum)
	a.Update(4, 3, sum)
	var keys []int
	a.Iterate(func(k, _ int) bool { keys = append(keys, k); return true })
	if !sort.IntsAreSorted(keys) {
		t.Fatalf("FixedArray iteration not ascending: %v", keys)
	}
	if a.Cap() != 10 {
		t.Fatalf("Cap = %d", a.Cap())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range key should panic")
		}
	}()
	a.Update(10, 1, sum)
}

func TestFixedArraySizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFixedArray(0) should panic")
		}
	}()
	NewFixedArray[int](0)
}

func TestFixedHashOverflowPanics(t *testing.T) {
	h := NewFixedHash[int, int](4, HashInt)
	for k := 0; k < 4; k++ {
		h.Update(k, 1, sum)
	}
	// Updating existing keys is fine at capacity.
	h.Update(0, 5, sum)
	defer func() {
		if recover() == nil {
			t.Fatal("exceeding declared capacity should panic")
		}
	}()
	h.Update(99, 1, sum)
}

func TestFixedHashStringKeys(t *testing.T) {
	h := NewFixedHash[string, int](100, HashString)
	words := []string{"map", "reduce", "combine", "map", "map"}
	for _, w := range words {
		h.Update(w, 1, sum)
	}
	if v, _ := h.Get("map"); v != 3 {
		t.Fatalf("map = %d, want 3", v)
	}
	if h.Len() != 3 {
		t.Fatalf("Len = %d, want 3", h.Len())
	}
}

func TestFixedHashValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"zero-capacity": func() { NewFixedHash[int, int](0, HashInt) },
		"nil-hasher":    func() { NewFixedHash[int, int](4, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s should panic", name)
				}
			}()
			f()
		}()
	}
}

// TestHashersDisperse: the int hashers are the identity and the table
// spreads their keys (Fibonacci hashing), so dense, strided and
// power-of-two-strided int keys all fill a table's home slots evenly: a
// table masking the identity's low bits would put every multiple of 1024 in
// one slot. HashString tells near strings apart on every branch of its
// length switch, and every word of WC's vocabulary apart.
func TestHashersDisperse(t *testing.T) {
	if HashInt(12345) != 12345 || HashUint64(1<<40) != 1<<40 {
		t.Fatal("the int hashers are not the identity")
	}
	const keys = 1024
	for _, stride := range []int{1, 3, 64, 1024, 1 << 20} {
		h := NewFixedHash[int, int](keys, HashInt) // 2048 slots
		load := map[uint64]int{}
		for i := range keys {
			load[h.homeOf(i*stride)/64]++ // 32 runs of 64 slots
		}
		for run, n := range load {
			if n > 2*keys/32 {
				t.Fatalf("stride %d: %d of %d keys have their home slot in run %d of 32", stride, n, keys, run)
			}
		}
		if len(load) != 32 {
			t.Fatalf("stride %d: home slots cover %d of 32 runs", stride, len(load))
		}
	}
	if HashString("abc") == HashString("abd") {
		t.Fatal("HashString collision on near strings")
	}
	// For each length 0-40 — the 0, 1-3, 4-7, 8-16 and looping branches —
	// the 256 strings that differ from a base in one byte at one position
	// hash apart, on two bases; and runs of zero bytes of every length do.
	byLen := map[uint64]int{}
	for n := 0; n <= 40; n++ {
		byLen[HashString(string(make([]byte, n)))] = n
		for _, base := range []byte{0, 'a'} {
			b := make([]byte, n)
			for i := range b {
				b[i] = base + byte(i%26)
			}
			for i := range b {
				seen := map[uint64]byte{}
				for c := range 256 {
					b[i] = byte(c)
					h := HashString(string(b))
					if prev, ok := seen[h]; ok {
						t.Fatalf("length %d, byte %d: %#x and %#x hash alike", n, i, prev, c)
					}
					seen[h] = byte(c)
				}
				b[i] = base + byte(i%26)
			}
		}
	}
	if len(byLen) != 41 {
		t.Fatalf("runs of 0-40 zero bytes have %d distinct hashes, want 41", len(byLen))
	}
	// WC's vocabulary: 5,000 words of 3-12 lower-case letters, drawn as
	// workloads.generateText draws them (its bytes are pinned by
	// TestInputBytesPinned), seeds 1 and 2.
	for _, seed := range []int64{1, 2} {
		rng := stats.Rng(seed, "wordcount")
		seen := map[uint64]string{}
		for range 5000 {
			b := make([]byte, 3+rng.Intn(10))
			for j := range b {
				b[j] = "abcdefghijklmnopqrstuvwxyz"[rng.Intn(26)]
			}
			w := string(b)
			if prev, ok := seen[HashString(w)]; ok && prev != w {
				t.Fatalf("seed %d: WC words %q and %q hash alike", seed, prev, w)
			}
			seen[HashString(w)] = w
		}
	}
}

func TestKindString(t *testing.T) {
	for kind, want := range map[Kind]string{
		KindFixedArray: "array",
		KindFixedHash:  "fixed-hash",
		KindHash:       "hash",
	} {
		if kind.String() != want {
			t.Fatalf("%d.String() = %q, want %q", kind, kind.String(), want)
		}
	}
	if Kind(42).String() == "" {
		t.Fatal("unknown Kind should render")
	}
}

func TestNewHashSized(t *testing.T) {
	h := NewHashSized[int, int](-1)
	h.Update(1, 1, sum)
	if v, _ := h.Get(1); v != 1 {
		t.Fatal("NewHashSized(-1) unusable")
	}
}

// TestUpdateBatchEquivalence pins the bulk-update contract: UpdateBatch
// must produce exactly the state of per-element Update calls in the same
// order, on every implementation.
func TestUpdateBatchEquivalence(t *testing.T) {
	kvs := make([]KV[int, int], 0, 300)
	for i := 0; i < 300; i++ {
		kvs = append(kvs, KV[int, int]{K: (i * 7) % 40, V: i})
	}
	batched := kindsOf[int](64)
	single := kindsOf[int](64)
	for kind := range batched {
		b, s := batched[kind], single[kind]
		b.UpdateBatch(nil, sum) // empty batch is a no-op
		b.UpdateBatch(kvs[:100], sum)
		b.UpdateBatch(kvs[100:], sum)
		for _, p := range kvs {
			s.Update(p.K, p.V, sum)
		}
		if b.Len() != s.Len() {
			t.Fatalf("%v: batched Len %d != single Len %d", kind, b.Len(), s.Len())
		}
		s.Iterate(func(k, v int) bool {
			if got, ok := b.Get(k); !ok || got != v {
				t.Fatalf("%v: key %d batched=(%d,%v) single=%d", kind, k, got, ok, v)
			}
			return true
		})
	}
}

// contents is what Iterate visits, as a map.
func contents[K comparable, V any](c Container[K, V]) map[K]V {
	m := map[K]V{}
	c.Iterate(func(k K, v V) bool { m[k] = v; return true })
	return m
}

// panicText runs f and returns what it panicked with, or "" if it did not.
func panicText(f func()) (text string) {
	defer func() {
		if v := recover(); v != nil {
			text = fmt.Sprint(v)
		}
	}()
	f()
	return ""
}

// TestFoldMatchesUpdate: a container's fold is its Update. Seeded random
// streams folded through Fold leave the state Update leaves on a twin — the
// same Len and the same Iterate set, under a combine whose result depends on
// the order it sees values in — and every pair is counted; past the
// declared bound both paths panic with the same text, the pair counted.
// Under Sum, each container's add fold does the same as Update under a
// plain a + b closure, for every value type it covers (sumFoldMatches).
func TestFoldMatchesUpdate(t *testing.T) {
	t.Run("sum/int", func(t *testing.T) { sumFoldMatches(t, func(r *rand.Rand) int { return r.Intn(1000) - 500 }) })
	t.Run("sum/int64", func(t *testing.T) { sumFoldMatches(t, func(r *rand.Rand) int64 { return r.Int63() - 1<<62 }) })
	t.Run("sum/uint64", func(t *testing.T) { sumFoldMatches(t, func(r *rand.Rand) uint64 { return r.Uint64() }) })
	t.Run("sum/float64", func(t *testing.T) { sumFoldMatches(t, func(r *rand.Rand) float64 { return r.NormFloat64() * 1e3 }) })
	ordered := func(acc, v int) int { return acc*31 + v }
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keyRange, pairs := 1+rng.Intn(300), rng.Intn(5000)
		folded, updated := kindsOf[int](keyRange), kindsOf[int](keyRange)
		for kind, c := range folded {
			var n uint64
			fold, twin := c.Fold(ordered, &n), updated[kind]
			r := rand.New(rand.NewSource(seed))
			for range pairs {
				k, v := r.Intn(keyRange), r.Intn(1000)-500
				fold(k, v)
				twin.Update(k, v, ordered)
			}
			if n != uint64(pairs) {
				t.Fatalf("seed %d, %v: fold counted %d pairs, want %d", seed, kind, n, pairs)
			}
			if c.Len() != twin.Len() || !maps.Equal(contents[int, int](c), contents[int, int](twin)) {
				t.Fatalf("seed %d, %v: fold left %d keys %v, Update %d keys %v", seed, kind, c.Len(), contents[int, int](c), twin.Len(), contents[int, int](twin))
			}
		}
	}
	for name, mk := range map[string]func() updatable[int, int]{
		"fixed-hash past its declared keys": func() updatable[int, int] { return NewFixedHash[int, int](4, HashInt) },
		"fixed-array past its key range":    func() updatable[int, int] { return NewFixedArray[int](4) },
	} {
		c, twin := mk(), mk()
		var n uint64
		fold := c.Fold(sum, &n)
		for k := range 4 {
			fold(k, 1)
			twin.Update(k, 1, sum)
		}
		got, want := panicText(func() { fold(99, 1) }), panicText(func() { twin.Update(99, 1, sum) })
		if got == "" || got != want {
			t.Fatalf("%s: fold panicked %q, Update %q", name, got, want)
		}
		if n != 5 || c.Len() != 4 {
			t.Fatalf("%s: fold counted %d pairs into %d keys, want 5 into 4", name, n, c.Len())
		}
	}
}

// sumFoldMatches checks the add folds for V values drawn by value: on
// every container kind with int keys (the hash ones under HashInt,
// probing from the key inline), on fixed-hash tables with uint64 keys
// under HashUint64, and on string tables of both kinds under HashString,
// the fold Fold builds under Sum is not the generic fold, and it leaves the
// bit-identical state Update leaves under a plain a + b closure, counting
// every pair; past a declared bound both panic with the same text.
func sumFoldMatches[V Number](t *testing.T, value func(*rand.Rand) V) {
	plus := func(a, b V) V { return a + b }
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keyRange, pairs := 1+rng.Intn(300), rng.Intn(5000)
		draw := func() (int, V) { return rng.Intn(keyRange), value(rng) }
		folded, updated := kindsOf[V](keyRange), kindsOf[V](keyRange)
		for kind, c := range folded {
			addFoldMatches(t, fmt.Sprintf("seed %d, %v", seed, kind), c, updated[kind], pairs, draw, plus)
		}
		addFoldMatches(t, fmt.Sprintf("seed %d, uint64 keys", seed),
			NewFixedHash[uint64, V](keyRange, HashUint64), NewFixedHash[uint64, V](keyRange, HashUint64), pairs,
			func() (uint64, V) { k, v := draw(); return uint64(k) << 32, v }, plus)
		addFoldMatches(t, fmt.Sprintf("seed %d, string keys", seed),
			NewFixedHash[string, V](keyRange, HashString), NewFixedHash[string, V](keyRange, HashString), pairs,
			func() (string, V) { k, v := draw(); return fmt.Sprint(k), v }, plus)
		addFoldMatches(t, fmt.Sprintf("seed %d, string keys, growing", seed),
			NewHash[string, V](), NewHash[string, V](), pairs,
			func() (string, V) { k, v := draw(); return fmt.Sprint(k), v }, plus)
	}
	for name, mk := range map[string]func() updatable[int, V]{
		"fixed-hash past its declared keys": func() updatable[int, V] { return NewFixedHash[int, V](4, HashInt) },
		"fixed-array past its key range":    func() updatable[int, V] { return NewFixedArray[V](4) },
	} {
		c, twin := mk(), mk()
		var n uint64
		fold := c.Fold(Sum[V](), &n)
		for k := range 4 {
			fold(k, 1)
			twin.Update(k, 1, plus)
		}
		got, want := panicText(func() { fold(99, 1) }), panicText(func() { twin.Update(99, 1, plus) })
		if got == "" || got != want {
			t.Fatalf("%s: the add fold panicked %q, Update %q", name, got, want)
		}
		if n != 5 || c.Len() != 4 {
			t.Fatalf("%s: the add fold counted %d pairs into %d keys, want 5 into 4", name, n, c.Len())
		}
	}
}

// addFoldMatches folds pairs pairs from draw into c through its fold under
// Sum and into twin through Update under plus, and requires the add fold,
// every pair counted, and the same state, each key found where Get looks.
func addFoldMatches[K comparable, V Number](t *testing.T, name string, c, twin updatable[K, V], pairs int, draw func() (K, V), plus Combine[V]) {
	t.Helper()
	var n uint64
	fold := c.Fold(Sum[V](), &n)
	if code(fold) == code(c.Fold(plus, new(uint64))) {
		t.Fatalf("%s: Fold under Sum built the generic fold", name)
	}
	for range pairs {
		k, v := draw()
		fold(k, v)
		twin.Update(k, v, plus)
	}
	if n != uint64(pairs) {
		t.Fatalf("%s: the add fold counted %d pairs, want %d", name, n, pairs)
	}
	if c.Len() != twin.Len() || !maps.Equal(contents[K, V](c), contents[K, V](twin)) {
		t.Fatalf("%s: the add fold left %d keys %v, Update %d keys %v", name, c.Len(), contents[K, V](c), twin.Len(), contents[K, V](twin))
	}
	for k, want := range contents[K, V](twin) {
		if got, ok := c.Get(k); !ok || got != want {
			t.Fatalf("%s: after the add fold Get(%v) = %v, %v; want %v", name, k, got, ok, want)
		}
	}
}

// TestUpdateBatchNonCommutative checks that batched folding preserves
// element order within and across batches (combine need only be
// associative, not commutative).
func TestUpdateBatchNonCommutative(t *testing.T) {
	concat := func(a, b string) string { return a + b }
	for _, c := range []Container[int, string]{
		NewFixedArray[string](8),
		NewFixedHash[int, string](8, HashInt),
		NewHash[int, string](),
	} {
		c.UpdateBatch([]KV[int, string]{{K: 1, V: "a"}, {K: 1, V: "b"}}, concat)
		c.UpdateBatch([]KV[int, string]{{K: 1, V: "c"}}, concat)
		if v, _ := c.Get(1); v != "abc" {
			t.Fatalf("%v: got %q, want \"abc\"", c.Kind(), v)
		}
	}
}

func TestFixedHashUpdateBatchOverflowPanics(t *testing.T) {
	h := NewFixedHash[int, int](2, HashInt)
	defer func() {
		if recover() == nil {
			t.Fatal("UpdateBatch over declared capacity should panic")
		}
	}()
	h.UpdateBatch([]KV[int, int]{{K: 1, V: 1}, {K: 2, V: 2}, {K: 3, V: 3}}, sum)
}

// HG's fixed-hash configuration: 768 dense int keys. At the declared size
// the table must be at most half full, and every key must sit on its home
// slot or next to it: at most 1.05 probes per steady-state update, where
// random slots at that load cost about 1.5 and the splitmix64 mix the
// identity HashInt replaced paid 1.31. The suite's other key sets are
// checked in suite_test.go.
func TestFixedHashLoadAtDeclaredSize(t *testing.T) {
	const keys = 768
	h := NewFixedHash[int, int](keys, HashInt)
	if got := len(h.slots); got != 2048 {
		t.Fatalf("768 keys sized to %d slots, want 2048 (next power of two >= 2x)", got)
	}
	for _, n := range []int{1, 7, 8, 100, 768, 1024, 5000} {
		if slots := len(NewFixedHash[int, int](n, HashInt).slots); slots < 2*n || slots&(slots-1) != 0 {
			t.Fatalf("%d keys sized to %d slots, want a power of two >= %d", n, slots, 2*n)
		}
	}
	batch := make([]KV[int, int], keys)
	for k := range batch {
		batch[k] = KV[int, int]{K: k, V: 1}
	}
	h.UpdateBatch(batch, sum)
	mean := ProbesPerUpdate(h)
	t.Logf("768 dense keys in %d slots: %.3f probes per steady-state update", len(h.slots), mean)
	if mean > 1.05 {
		t.Fatalf("mean probes per update at the declared size = %.2f, want <= 1.05", mean)
	}
	if h.Len() != keys {
		t.Fatalf("Len = %d, want %d", h.Len(), keys)
	}
}

// nearStrings returns keys of every length 0-40 and, for each, the keys
// that differ from it in one byte at each position: the keys an inline
// identity must tell apart. The bytes include spaces and zeros.
func nearStrings(rng *rand.Rand) []string {
	seen := map[string]bool{}
	var keys []string
	add := func(b []byte) {
		if k := string(b); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for n := 0; n <= 40; n++ {
		base := make([]byte, n)
		for i := range base {
			base[i] = byte(rng.Intn(4)) * 32 // 0, ' ', '@', '`'
		}
		add(base)
		for i := range base {
			near := append([]byte(nil), base...)
			near[i]++
			add(near)
		}
	}
	return keys
}

// TestStringTableTellsWordsApart: for each key length 1-16, the 256 keys
// that differ only in their last byte — for a length of 5 or more, only in
// the second word — share a tag and, past 8 bytes, a first word, so at
// load 1/2 their probe runs cross one another's slots. Folded under
// HashString through the Sum fold, Update and UpdateBatch, into tables of
// both kinds, every key keeps an accumulator of its own: a probe that
// compared one word less would merge them.
func TestStringTableTellsWordsApart(t *testing.T) {
	for n := 1; n <= 16; n++ {
		keys := make([]string, 256)
		for c := range keys {
			b := []byte(strings.Repeat("w", n))
			b[n-1] = byte(c)
			keys[c] = string(b)
		}
		for _, kind := range []Kind{KindFixedHash, KindHash} {
			for _, path := range []string{"sum fold", "update", "update batch"} {
				h := newHash[string, int](kind, len(keys), HashString, uint64(n))
				if kind == KindHash {
					h = newHash[string, int](kind, 1, HashString, uint64(n))
				}
				var pairs uint64
				fold := h.Fold(Sum[int](), &pairs)
				for round := range 2 {
					for c, k := range keys {
						switch path {
						case "sum fold":
							fold(k, c+round)
						case "update":
							h.Update(k, c+round, sum)
						default:
							h.UpdateBatch([]KV[string, int]{{k, c + round}}, sum)
						}
					}
				}
				if h.Len() != len(keys) {
					t.Fatalf("length %d, %v, %s: %d keys of %d", n, kind, path, h.Len(), len(keys))
				}
				for c, k := range keys {
					if v, ok := h.Get(k); !ok || v != 2*c+1 {
						t.Fatalf("length %d, %v, %s: Get(%q) = %d, %v; want %d", n, kind, path, k, v, ok, 2*c+1)
					}
				}
			}
		}
	}
}

// TestFixedHashStringModel pins a string-keyed table of either kind against
// a map: Update, UpdateBatch, the Sum fold, another combine's fold and
// Merge between two tables, over keys of 0-40 bytes that differ in one
// byte at each position, under HashString and under a hasher that gives
// every key of a length one hash — where only the inline identity, or for
// a long key the stored key, tells keys apart. A growing table starts at
// eight slots, so the folds see it double seven times.
func TestFixedHashStringModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := nearStrings(rng)
	hashers := map[string]Hasher[string]{
		"HashString": HashString,
		"length":     func(s string) uint64 { return uint64(len(s)) },
	}
	maxOf := func(a, b int) int { return max(a, b) }
	for name, hash := range hashers {
		t.Run(name, func(t *testing.T) {
			for _, kind := range []Kind{KindFixedHash, KindHash} {
				t.Run(kind.String(), func(t *testing.T) {
					mk := func() *Hash[string, int] {
						if kind == KindFixedHash {
							return NewFixedHash[string, int](len(keys), hash)
						}
						return newHash[string, int](KindHash, 1, hash, rng.Uint64())
					}
					model, maxModel := map[string]int{}, map[string]int{}
					tables := []*Hash[string, int]{mk(), mk()}
					maxTable := mk()
					var n uint64
					folds := []func(string, int){tables[0].Fold(Sum[int](), &n), tables[1].Fold(Sum[int](), &n)}
					maxFold := maxTable.Fold(maxOf, &n)
					var batch []KV[string, int]
					for i := 0; i < 20*len(keys); i++ {
						k, v := keys[rng.Intn(len(keys))], rng.Intn(100)
						model[k] += v
						if _, ok := maxModel[k]; !ok || v > maxModel[k] {
							maxModel[k] = v
						}
						maxFold(k, v)
						switch t := tables[i%2]; rng.Intn(3) {
						case 0:
							t.Update(k, v, sum)
						case 1:
							folds[i%2](k, v)
						default:
							batch = append(batch, KV[string, int]{k, v})
							if len(batch) == 7 {
								t.UpdateBatch(batch, sum)
								batch = batch[:0]
							}
						}
					}
					tables[0].UpdateBatch(batch, sum)
					Merge[string, int](tables[0], tables[1], sum)
					for label, c := range map[string]struct {
						h    *Hash[string, int]
						want map[string]int
					}{"sum": {tables[0], model}, "max": {maxTable, maxModel}} {
						got := map[string]int{}
						c.h.Iterate(func(k string, v int) bool { got[k] = v; return true })
						if !maps.Equal(got, c.want) || c.h.Len() != len(c.want) {
							t.Fatalf("%s: table holds %d keys, the model %d; they differ", label, c.h.Len(), len(c.want))
						}
						for _, k := range keys {
							v, ok := c.h.Get(k)
							if w, in := c.want[k]; ok != in || v != w {
								t.Fatalf("%s: Get(%q) = %d, %v; the model has %d, %v", label, k, v, ok, w, in)
							}
						}
					}
					if _, ok := tables[0].Get("absent key of more than sixteen bytes"); ok {
						t.Fatal("Get found a key never inserted")
					}
					tables[0].Reset()
					if tables[0].Len() != 0 {
						t.Fatal("Reset left keys")
					}
					tables[0].Iterate(func(k string, v int) bool { t.Fatalf("Reset table yields %q", k); return false })
				})
			}
		})
	}
}
