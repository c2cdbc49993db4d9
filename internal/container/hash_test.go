package container

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// hashModel is a Hash as a Go map would hold it: each key's position in
// a map, the keys and accumulators in first-seen order.
type hashModel[K comparable] struct {
	pos  map[K]int
	keys []K
	vals []int
}

func (m *hashModel[K]) update(k K, v int, combine Combine[int]) {
	if i, ok := m.pos[k]; ok {
		m.vals[i] = combine(m.vals[i], v)
		return
	}
	m.pos[k] = len(m.keys)
	m.keys = append(m.keys, k)
	m.vals = append(m.vals, v)
}

func (m *hashModel[K]) reset() {
	clear(m.pos)
	m.keys, m.vals = m.keys[:0], m.vals[:0]
}

// same reports whether a is b down to the bits for a float64 key — so the
// first-seen of +0 and −0 is the one kept, and a NaN is a NaN — and by ==
// for any other.
func same[K comparable](a, b K) bool {
	if x, ok := any(a).(float64); ok {
		return math.Float64bits(x) == math.Float64bits(any(b).(float64))
	}
	return a == b
}

// requireModel fails unless h holds exactly m: its Len, Iterate's set of
// pairs — each of m's keys once, with its accumulator, in any order; a NaN
// key matches any of m's unmatched NaNs with its value — and Get's answer
// for every key, a NaN never found.
func requireModel[K comparable](t *testing.T, name string, h *Hash[K, int], m *hashModel[K]) {
	t.Helper()
	if h.Len() != len(m.keys) {
		t.Fatalf("%s: Len %d, the map model %d", name, h.Len(), len(m.keys))
	}
	seen := make([]bool, len(m.keys))
	var nans []int // m's NaN keys Iterate has not yet visited
	for j, k := range m.keys {
		if k != k {
			nans = append(nans, j)
		}
	}
	visited := 0
	h.Iterate(func(k K, v int) bool {
		j, ok := m.pos[k]
		if k != k {
			at := slices.IndexFunc(nans, func(j int) bool { return m.vals[j] == v })
			if ok = at >= 0; ok {
				j = nans[at]
				nans = slices.Delete(nans, at, at+1)
			}
		}
		if !ok || seen[j] || !same(k, m.keys[j]) || v != m.vals[j] {
			t.Fatalf("%s: Iterate's pair %d is (%v, %d), which the map model does not hold", name, visited, k, v)
		}
		seen[j] = true
		visited++
		return true
	})
	if visited != len(m.keys) {
		t.Fatalf("%s: Iterate visited %d pairs of %d", name, visited, len(m.keys))
	}
	for j, k := range m.keys {
		v, ok := h.Get(k)
		if k != k {
			if ok {
				t.Fatalf("%s: Get found a NaN key", name)
			}
			continue
		}
		if !ok || v != m.vals[j] {
			t.Fatalf("%s: Get(%v) = %d, %v; the map model %d", name, k, v, ok, m.vals[j])
		}
	}
}

// TestHashMatchesMap: a growing Hash holds what a Go map holds — the same
// set of keys, each with the same accumulator; the order is the table's —
// for every key type the runtimes or a user may give it — string, int,
// int64, uint64, float64 (+0 and −0 one key, each NaN a key of its own)
// and a struct. A seeded stream grows the table from 0 to 2^17 keys, folds
// a skewed run over them, then resets it and reuses it, through the add
// fold under Sum, the generic fold under a combine that sees order, and
// UpdateBatch.
func TestHashMatchesMap(t *testing.T) {
	t.Run("string", func(t *testing.T) {
		t.Parallel()
		hashMatchesMap(t, func(i int) string { return strconv.Itoa(i*7919) + strings.Repeat("w", i%21) })
	})
	t.Run("int", func(t *testing.T) {
		t.Parallel()
		hashMatchesMap(t, func(i int) int { return (i - 1<<16) * 40503 })
	})
	t.Run("int64", func(t *testing.T) {
		t.Parallel()
		hashMatchesMap(t, func(i int) int64 { return int64(i)<<33 ^ int64(i) })
	})
	t.Run("uint64", func(t *testing.T) {
		t.Parallel()
		hashMatchesMap(t, func(i int) uint64 { return uint64(i)<<40 | uint64(i) })
	})
	t.Run("float64", func(t *testing.T) {
		t.Parallel()
		hashMatchesMap(t, func(i int) float64 {
			switch i % 1024 {
			case 0:
				return 0
			case 1:
				return math.Copysign(0, -1)
			case 2:
				return math.NaN()
			}
			return float64(i)*0.25 - 1e4
		})
	})
	type pair struct {
		a int32
		b string
	}
	t.Run("struct", func(t *testing.T) {
		t.Parallel()
		hashMatchesMap(t, func(i int) pair { return pair{int32(i % 977), strconv.Itoa(i / 977)} })
	})
}

func hashMatchesMap[K comparable](t *testing.T, key func(int) K) {
	const keys = 1 << 17
	ks := make([]K, keys)
	for i := range ks {
		ks[i] = key(i)
	}
	plus := func(a, b int) int { return a + b }
	ordered := func(acc, v int) int { return acc*31 + v }
	for seed, path := range []struct {
		name    string
		combine Combine[int] // the model's
		apply   func(h *Hash[K, int], n *uint64) func(K, int)
	}{
		{"sum fold", plus, func(h *Hash[K, int], n *uint64) func(K, int) { return h.Fold(Sum[int](), n) }},
		{"generic fold", ordered, func(h *Hash[K, int], n *uint64) func(K, int) { return h.Fold(ordered, n) }},
		{"update batch", ordered, func(h *Hash[K, int], n *uint64) func(K, int) {
			return func(k K, v int) {
				*n++
				h.UpdateBatch([]KV[K, int]{{k, v}}, ordered)
			}
		}},
	} {
		r := rand.New(rand.NewSource(int64(seed)))
		h, m := NewHash[K, int](), &hashModel[K]{pos: map[K]int{}}
		var n uint64
		fold := path.apply(h, &n)
		pairs := 0
		put := func(i int) {
			k, v := ks[i], r.Intn(1000)-500
			fold(k, v)
			m.update(k, v, path.combine)
			pairs++
		}
		for j, i := range r.Perm(keys) {
			put(i)
			if j&(j+1) == 0 || j == keys-1 { // at every power of two keys, and at 2^17
				requireModel(t, fmt.Sprintf("%s, growing, %d pairs", path.name, j+1), h, m)
			}
		}
		for range keys / 2 {
			put(int(float64(keys) * math.Pow(r.Float64(), 4))) // a skewed run, heaviest at key 0
		}
		requireModel(t, path.name+", skewed", h, m)
		if n != uint64(pairs) {
			t.Fatalf("%s: the fold counted %d pairs, want %d", path.name, n, pairs)
		}
		h.Reset()
		m.reset()
		requireModel(t, path.name+", reset", h, m)
		if _, ok := h.Get(ks[3]); ok {
			t.Fatalf("%s: Get found a key after Reset", path.name)
		}
		for range 4096 {
			put(r.Intn(1000))
		}
		requireModel(t, path.name+", reused", h, m)
	}
}

// FuzzTable drives both kinds of table through every operation against a
// Go map: Update, the fold under Sum and under an order-sensitive combine,
// UpdateBatch, Merge, Reset, Get, Len and Iterate. Each input is a run of
// 4-byte ops (op, key index low and high byte, value) applied alike to
// tables of string keys (0-40 bytes, near one another), int keys and a
// struct key, under their own hasher (HashString, HashInt, the runtime's
// hash of the struct) and under one that puts every key of a length, or
// every key, in one probe cluster. A growing table starts at 8 slots, so
// a burst op takes it across several doublings.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 5, 2, 1, 0, 7, 5, 9, 0, 1, 3, 1, 0, 2, 6, 40, 0, 3, 7, 1, 0, 4})
	f.Add([]byte{5, 0, 0, 1, 5, 64, 0, 2, 5, 128, 0, 3, 5, 192, 0, 4, 7, 0, 0, 0, 5, 7, 1, 5, 4, 3, 1, 9})
	f.Add([]byte{5, 200, 1, 1, 5, 10, 2, 1, 6, 0, 0, 2, 6, 99, 1, 3, 2, 17, 0, 250, 3, 17, 0, 6, 1, 17, 0, 255})
	// Words 136-152 are a 16-byte key and its 16 one-byte variants; 137-144
	// differ from 136 in the first word, 145-152 in the second only.
	near := []byte{}
	for w := byte(136); w <= 152; w++ {
		near = append(near, 2, w, 0, w)
	}
	f.Add(near)
	words := nearStrings(rand.New(rand.NewSource(1)))
	type pair struct {
		a int32
		b string
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeOps(data)
		tableAgainstMap(t, "string", ops, len(words), func(i int) string { return words[i] },
			HashString, func(s string) uint64 { return uint64(len(s)) })
		tableAgainstMap(t, "int", ops, 1024, func(i int) int { return (i - 512) * 40503 },
			HashInt, func(int) uint64 { return 0 })
		tableAgainstMap(t, "struct", ops, 1024, func(i int) pair { return pair{int32(i % 7), strconv.Itoa(i / 7)} },
			hasherFor[pair](), func(p pair) uint64 { return uint64(len(p.b)) })
	})
}

// tableOp is one decoded FuzzTable op: its code, a key index and a value.
type tableOp struct {
	code, key, v int
}

func decodeOps(data []byte) []tableOp {
	var ops []tableOp
	for ; len(data) >= 4 && len(ops) < 128; data = data[4:] {
		ops = append(ops, tableOp{int(data[0] % 8), int(data[1]) | int(data[2])<<8, int(int8(data[3]))})
	}
	return ops
}

// tableAgainstMap applies ops to four tables of keys key(0..keys-1) — fixed
// and growing, under hash and under clustered — and to a Go map, and
// requires each table to hold what the map holds after every op that can
// change it.
func tableAgainstMap[K comparable](t *testing.T, name string, ops []tableOp, keys int, key func(int) K, hash, clustered Hasher[K]) {
	ordered := func(acc, v int) int { return acc*31 + v }
	for _, c := range []struct {
		label string
		mk    func() *Hash[K, int]
	}{
		{"fixed", func() *Hash[K, int] { return NewFixedHash[K, int](keys, hash) }},
		{"fixed, clustered", func() *Hash[K, int] { return NewFixedHash[K, int](keys, clustered) }},
		{"growing", func() *Hash[K, int] { return newHash[K, int](KindHash, 1, hash, 7) }},
		{"growing, clustered", func() *Hash[K, int] { return newHash[K, int](KindHash, 1, clustered, 7) }},
	} {
		label := name + ", " + c.label
		h, model := c.mk(), map[K]int{}
		var n, want uint64
		add, fold := h.Fold(Sum[int](), &n), h.Fold(ordered, &n)
		apply := func(k K, v int, combine Combine[int]) {
			if old, ok := model[k]; ok {
				v = combine(old, v)
			}
			model[k] = v
		}
		for at, op := range ops {
			k := key(op.key % keys)
			switch op.code {
			case 0, 1:
				h.Update(k, op.v, sum)
				apply(k, op.v, sum)
			case 2:
				add(k, op.v)
				apply(k, op.v, sum)
				want++
			case 3:
				fold(k, op.v)
				apply(k, op.v, ordered)
				want++
			case 4:
				batch := make([]KV[K, int], 0, 4)
				for _, j := range []int{0, 1, 2, 0} {
					batch = append(batch, KV[K, int]{key((op.key + j) % keys), op.v + j})
					apply(batch[len(batch)-1].K, op.v+j, ordered)
				}
				h.UpdateBatch(batch, ordered)
			case 5: // a burst of 64 keys, through the add fold
				for j := range 64 {
					k := key((op.key + j*13) % keys)
					add(k, op.v)
					apply(k, op.v, sum)
					want++
				}
			case 6:
				src, from := c.mk(), map[K]int{}
				for j := range 16 {
					k := key((op.key + j*29) % keys)
					src.Update(k, op.v+j, sum)
					from[k] += op.v + j
				}
				Merge[K, int](h, src, sum)
				for k, v := range from {
					apply(k, v, sum)
				}
			case 7:
				if op.v&3 == 0 {
					h.Reset()
					clear(model)
				} else if got, ok := h.Get(k); ok != keyIn(model, k) || got != model[k] {
					t.Fatalf("%s, op %d: Get(%v) = %d, %v; the map holds %d", label, at, k, got, ok, model[k])
				}
			}
			if h.Len() != len(model) {
				t.Fatalf("%s, op %d: Len %d, the map %d", label, at, h.Len(), len(model))
			}
			if op.code >= 5 || at%16 == 15 || at == len(ops)-1 {
				requireMap(t, fmt.Sprintf("%s, op %d", label, at), h, model)
			}
		}
		if n != want {
			t.Fatalf("%s: the folds counted %d pairs, want %d", label, n, want)
		}
	}
}

func keyIn[K comparable](m map[K]int, k K) bool {
	_, ok := m[k]
	return ok
}

// requireMap fails unless h holds exactly model: Len, Iterate's pairs, and
// Get for each key. FuzzTable runs it after each op that can move many
// keys, every 16th op and the last.
func requireMap[K comparable](t *testing.T, label string, h *Hash[K, int], model map[K]int) {
	t.Helper()
	if h.Len() != len(model) {
		t.Fatalf("%s: Len %d, the map %d", label, h.Len(), len(model))
	}
	got := make(map[K]int, len(model))
	h.Iterate(func(k K, v int) bool {
		if _, dup := got[k]; dup {
			t.Fatalf("%s: Iterate visits %v twice", label, k)
		}
		got[k] = v
		return true
	})
	if !maps.Equal(got, model) {
		t.Fatalf("%s: Iterate's pairs differ from the map's", label)
	}
	for k, v := range model {
		if g, ok := h.Get(k); !ok || g != v {
			t.Fatalf("%s: Get(%v) = %d, %v; the map holds %d", label, k, g, ok, v)
		}
	}
}

// TestSeedSpreadsFlood: a table handed HashString hashes under a seed of
// its own. 64 words that share one home slot of a 128-slot table under
// the public hash (seed 0, HashString on its own: what a client can
// search offline) fill one probe run there, 32.5 probes per update; under
// a drawn seed the same words spread, as 64 random keys would. Two tables
// built alike draw different seeds, and neither is the public one.
func TestSeedSpreadsFlood(t *testing.T) {
	const keys = 64
	for _, kind := range []Kind{KindFixedHash, KindHash} {
		public := newHash[string, int](kind, keys, HashString, 0)
		var words []string
		for i := 0; len(words) < keys; i++ {
			if w := "w" + strconv.Itoa(i); public.homeOf(w) == 0 {
				words = append(words, w)
			}
		}
		for _, r := range []uint64{0, 1, 2} {
			h := newHash[string, int](kind, keys, HashString, r)
			for _, w := range words {
				h.Update(w, 1, sum)
			}
			probes := ProbesPerUpdate(h)
			t.Logf("%v, seed %d: %d words in %d slots, %.2f probes per update", kind, r, keys, len(h.strs), probes)
			if flooded := r == 0; flooded != (probes > keys/4) {
				t.Errorf("%v, seed %d: %.2f probes per update", kind, r, probes)
			}
		}
	}
	for name, mk := range map[string]func() *Hash[string, int]{
		"NewHash":      NewHash[string, int],
		"NewFixedHash": func() *Hash[string, int] { return NewFixedHash[string, int](keys, HashString) },
	} {
		a, b := mk(), mk()
		if !a.wy || a.seed == b.seed || a.seed == unseeded || b.seed == unseeded {
			t.Errorf("%s: two tables drew seeds %x and %x", name, a.seed, b.seed)
		}
	}
}
