package container

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// hashModel is a Hash as a Go map would hold it: each key's slab position
// in a map, the keys and accumulators in first-seen order.
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

// requireModel fails unless h holds exactly m: its Len, Iterate's pairs in
// m's order, and Get's answer for every key, a NaN never found.
func requireModel[K comparable](t *testing.T, name string, h *Hash[K, int], m *hashModel[K]) {
	t.Helper()
	if h.Len() != len(m.keys) {
		t.Fatalf("%s: Len %d, the map model %d", name, h.Len(), len(m.keys))
	}
	i := 0
	h.Iterate(func(k K, v int) bool {
		if i >= len(m.keys) || !same(k, m.keys[i]) || v != m.vals[i] {
			t.Fatalf("%s: Iterate's pair %d is (%v, %d), the map model's (%v, %d)", name, i, k, v, m.keys[i], m.vals[i])
		}
		i++
		return true
	})
	if i != len(m.keys) {
		t.Fatalf("%s: Iterate visited %d pairs of %d", name, i, len(m.keys))
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

// TestHashMatchesMap: Hash holds what a Go map holds, in first-seen order,
// for every key type the runtimes or a user may give it — string, int,
// int64, uint64, float64 (+0 and −0 one key, each NaN a key of its own)
// and a struct. A seeded stream grows the table from 0 to 2^17 keys, folds
// a skewed run over them, then resets it and reuses it, through the add
// fold under Sum, the generic fold under a combine that sees order, and
// UpdateBatch. It is the contract any replacement of Hash's index must
// keep.
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
