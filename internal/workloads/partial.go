package workloads

import (
	"cmp"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"ramr/internal/mr"
)

// This file is the partial a shard job exports (shard.go) and a cluster
// coordinator merges: the shard's output as sorted columns, their wire
// form, and the merge of several into one.

// Partial is the type-erased, JSON-serializable partial result of one
// shard run: the shard's full output as two sorted columns, its keys in
// ascending order and each key's value at the same index. Exactly one pair
// of columns is populated, by key type. Values are the app's exact integer
// aggregates (uint64 addition is associative and commutative, and every
// shardable app's combine is plain addition — possibly wrapping, which
// merging reproduces).
//
// The columns are the engine's output as it comes, already sorted by key,
// so a shard exports them without a map; on the wire each column is one
// string (partialWire). A decoded Partial is checked (UnmarshalJSON): its
// columns are of equal length and its keys strictly ascending, so merging
// is a linear walk over sorted runs.
type Partial struct {
	// App names the workload whose folds apply (WC, HG, SYNTH).
	App string
	// Words and Counts are a WC partial: the distinct words ascending,
	// none empty or holding a space, and each word's count.
	Words  []string
	Counts []int64
	// Keys and Values are an HG or SYNTH partial: the distinct keys
	// ascending, and each key's aggregate.
	Keys   []int
	Values []uint64
}

// Len is the number of distinct keys in the partial.
func (p *Partial) Len() int {
	if p == nil {
		return 0
	}
	return len(p.Words) + len(p.Keys)
}

// Size is the partial's footprint in memory: its words' bytes, their
// string headers and the value columns.
func (p *Partial) Size() int {
	if p == nil {
		return 0
	}
	n := 24*len(p.Words) + 16*len(p.Keys)
	for _, w := range p.Words {
		n += len(w)
	}
	return n
}

// Check reports whether p is well formed: it populates only its app's pair
// of columns — words for WC, keys for the others — of equal length, with
// keys strictly ascending (sorted and free of duplicates), and words that
// are non-empty and hold no space, as WC's map emits them.
func (p *Partial) Check() error {
	switch {
	case len(p.Words) != len(p.Counts):
		return fmt.Errorf("workloads: partial of app %q has %d words but %d counts", p.App, len(p.Words), len(p.Counts))
	case len(p.Keys) != len(p.Values):
		return fmt.Errorf("workloads: partial of app %q has %d keys but %d values", p.App, len(p.Keys), len(p.Values))
	case p.App == "WC" && len(p.Keys) > 0, p.App != "WC" && len(p.Words) > 0:
		return fmt.Errorf("workloads: partial of app %q holds the other key type's columns", p.App)
	}
	for i, w := range p.Words {
		if w == "" || strings.IndexByte(w, ' ') >= 0 {
			return fmt.Errorf("workloads: partial of app %q has word %q, which WC's map cannot emit", p.App, w)
		}
		if i > 0 && p.Words[i-1] >= w {
			return fmt.Errorf("workloads: partial of app %q has words out of order at %d (%q, %q)", p.App, i, p.Words[i-1], w)
		}
	}
	for i := 1; i < len(p.Keys); i++ {
		if p.Keys[i-1] >= p.Keys[i] {
			return fmt.Errorf("workloads: partial of app %q has keys out of order at %d (%d, %d)", p.App, i, p.Keys[i-1], p.Keys[i])
		}
	}
	return nil
}

// partialWire is a Partial on the wire: each column is one JSON string,
// its entries joined by single spaces — the words as they are (a WC word
// holds no space, so the text splits back into exactly the words), the
// integers in decimal. encoding/json then writes and reads four strings
// where it would walk arrays entry by entry, an indenting encoder leaves
// them whole, and the words arrive in one allocation.
type partialWire struct {
	App    string `json:"app"`
	Words  string `json:"words,omitempty"`
	Counts string `json:"counts,omitempty"`
	Keys   string `json:"keys,omitempty"`
	Values string `json:"values,omitempty"`
}

// MarshalJSON encodes p in its wire form.
func (p Partial) MarshalJSON() ([]byte, error) {
	return json.Marshal(partialWire{
		App:    p.App,
		Words:  strings.Join(p.Words, " "),
		Counts: joinInts(p.Counts),
		Keys:   joinInts(p.Keys),
		Values: joinInts(p.Values),
	})
}

// UnmarshalJSON decodes a partial from its wire form and refuses one that
// fails Check: a partial is merged as sorted runs, so an unsorted one
// would merge into a wrong result instead of failing.
func (p *Partial) UnmarshalJSON(b []byte) error {
	var w partialWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	c := Partial{App: w.App}
	if w.Words != "" {
		c.Words = strings.Split(w.Words, " ")
	}
	var err error
	if c.Counts, err = splitInts[int64](w.Counts); err != nil {
		return err
	}
	if c.Keys, err = splitInts[int](w.Keys); err != nil {
		return err
	}
	if c.Values, err = splitInts[uint64](w.Values); err != nil {
		return err
	}
	if err := c.Check(); err != nil {
		return err
	}
	*p = c
	return nil
}

// joinInts writes xs in decimal, joined by single spaces.
func joinInts[T int | int64 | uint64](xs []T) string {
	b := make([]byte, 0, 8*len(xs))
	for i, x := range xs {
		if i > 0 {
			b = append(b, ' ')
		}
		if x < 0 {
			b = append(b, '-')
			x = -x // the magnitude, as a uint64 below, also of the least int64
		}
		b = strconv.AppendUint(b, uint64(x), 10)
	}
	return string(b)
}

// splitInts reads a column joinInts wrote; "" is no entries.
func splitInts[T int | int64 | uint64](s string) ([]T, error) {
	if s == "" {
		return nil, nil
	}
	out := make([]T, 0, strings.Count(s, " ")+1)
	_, unsigned := any(T(0)).(uint64)
	for tok := range strings.SplitSeq(s, " ") {
		var v T
		if unsigned {
			u, err := strconv.ParseUint(tok, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("workloads: partial column: %v", err)
			}
			v = T(u)
		} else {
			i, err := strconv.ParseInt(tok, 10, 64)
			if err == nil && int64(T(i)) != i {
				err = fmt.Errorf("%s out of range", tok)
			}
			if err != nil {
				return nil, fmt.Errorf("workloads: partial column: %v", err)
			}
			v = T(i)
		}
		out = append(out, v)
	}
	return out, nil
}

// wordPartial is a WC shard's partial over its sorted output: the words
// copied into one arena, so the partial keeps none of the text they were
// mapped from, and their counts.
func wordPartial(pairs []mr.Pair[string, int]) *Partial {
	size := 0
	for _, kv := range pairs {
		size += len(kv.Key)
	}
	var arena strings.Builder
	arena.Grow(size)
	for _, kv := range pairs {
		arena.WriteString(kv.Key)
	}
	all := arena.String()
	p := &Partial{App: "WC", Words: make([]string, len(pairs)), Counts: make([]int64, len(pairs))}
	off := 0
	for i, kv := range pairs {
		p.Words[i], p.Counts[i] = all[off:off+len(kv.Key)], int64(kv.Value)
		off += len(kv.Key)
	}
	return p
}

// IntPartial is an int-keyed shard's partial over its sorted output.
func IntPartial[R int | uint64](app string, pairs []mr.Pair[int, R]) *Partial {
	p := &Partial{App: app, Keys: make([]int, len(pairs)), Values: make([]uint64, len(pairs))}
	for i, kv := range pairs {
		p.Keys[i], p.Values[i] = kv.Key, uint64(kv.Value)
	}
	return p
}

// MergePartials folds shard partials into one: per-key sums with the
// same (wrapping) integer addition the engines' Combine uses, as one
// linear merge of the partials' sorted runs. All partials must belong to
// the same app and pass Check; nil entries are skipped.
func MergePartials(parts []*Partial) (*Partial, error) {
	var live []*Partial
	for _, p := range parts {
		if p == nil {
			continue
		}
		if err := p.Check(); err != nil {
			return nil, err
		}
		if len(live) > 0 && p.App != live[0].App {
			return nil, fmt.Errorf("workloads: merging partials of different apps (%q vs %q)", live[0].App, p.App)
		}
		live = append(live, p)
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("workloads: no partials to merge")
	}
	words, counts := make([][]string, len(live)), make([][]int64, len(live))
	keys, values := make([][]int, len(live)), make([][]uint64, len(live))
	for i, p := range live {
		words[i], counts[i], keys[i], values[i] = p.Words, p.Counts, p.Keys, p.Values
	}
	out := &Partial{App: live[0].App}
	out.Words, out.Counts = mergeRuns(words, counts)
	out.Keys, out.Values = mergeRuns(keys, values)
	return out, nil
}

// mergeRuns merges sorted runs of distinct keys, each key's values at the
// same indices, into one sorted run, summing the values of a key several
// runs hold. Each step takes the least key at the runs' heads; the runs
// are a cluster's shards, few enough that a scan of the heads beats a heap.
// No keys give nil columns.
func mergeRuns[K cmp.Ordered, V int64 | uint64](ks [][]K, vs [][]V) ([]K, []V) {
	n := 0
	for _, k := range ks {
		n += len(k)
	}
	if n == 0 {
		return nil, nil
	}
	outK, outV := make([]K, 0, n), make([]V, 0, n)
	at := make([]int, len(ks))
	for {
		least := -1
		for r, k := range ks {
			if at[r] < len(k) && (least < 0 || k[at[r]] < ks[least][at[least]]) {
				least = r
			}
		}
		if least < 0 {
			return outK, outV
		}
		key := ks[least][at[least]]
		var sum V
		for r, k := range ks {
			if at[r] < len(k) && k[at[r]] == key {
				sum += vs[r][at[r]]
				at[r]++
			}
		}
		outK, outV = append(outK, key), append(outV, sum)
	}
}

// Summary derives the merged result's figures: the number of distinct
// keys and the app's order-independent output digest — the identical
// fold the unsharded job applies pair by pair, so a fully merged Partial
// summarizes to the single-node run's exact digest.
func (p *Partial) Summary() (pairs int, digest uint64, err error) {
	if p == nil {
		return 0, 0, fmt.Errorf("workloads: nil partial")
	}
	switch p.App {
	case "WC":
		for i, w := range p.Words {
			digest += wcPairDigest(w, int(p.Counts[i]))
		}
		return len(p.Words), digest, nil
	case "HG":
		for i, k := range p.Keys {
			digest += intPairDigest(k, p.Values[i])
		}
		return len(p.Keys), digest, nil
	case "SYNTH":
		for i, k := range p.Keys {
			digest += SynthPairDigest(k, p.Values[i])
		}
		return len(p.Keys), digest, nil
	default:
		return 0, 0, fmt.Errorf("workloads: app %q has no partial summary", p.App)
	}
}
