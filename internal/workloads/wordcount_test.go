package workloads

import (
	"math/rand"
	"strings"
	"testing"

	"ramr/internal/stats"
)

// referenceText is generateText as it was written before the slot store:
// a strings.Builder per split, a WriteString and a WriteByte per word, the
// words drawn by math/rand's own Zipf over rand.New of the split's
// substream. It is the oracle the generator must match byte for byte.
func referenceText(n int, seed int64, sh ShardSpec) []string {
	rng := stats.Rng(seed, "wordcount")
	vocab := make([]string, wcVocab)
	const letters = "abcdefghijklmnopqrstuvwxyz"
	for i := range vocab {
		b := make([]byte, 3+rng.Intn(10))
		for j := range b {
			b[j] = letters[rng.Intn(len(letters))]
		}
		vocab[i] = string(b)
	}
	splits := make([]string, sh.Owned((n+wcSplitBytes-1)/wcSplitBytes))
	src := stats.NewStream(seed, "wordcount")
	zipf := rand.NewZipf(rand.New(src), 1.2, 1, wcVocab-1)
	for k := range splits {
		i := sh.Index + k*sh.Count
		src.Seek(i)
		var b strings.Builder
		for quota := min(wcSplitBytes, n-i*wcSplitBytes); b.Len() < quota; {
			b.WriteString(vocab[zipf.Uint64()])
			b.WriteByte(' ')
		}
		splits[k] = b.String()
	}
	return splits
}

// TestTextMatchesReference: the generator writes the reference's bytes with
// the reference's split boundaries, for sizes of 0, under one word, one
// split exactly and off a multiple of the split size, on every shard spec
// and build width tried.
func TestTextMatchesReference(t *testing.T) {
	sizes := []int{0, 1, 2, 7, wcSplitBytes - 1, wcSplitBytes, wcSplitBytes + 1, 3*wcSplitBytes - 5, 7*wcSplitBytes + 12345}
	shards := []ShardSpec{{Index: 0, Count: 1}, {Index: 1, Count: 2}, {Index: 2, Count: 3}, {Index: 4, Count: 7}}
	for _, seed := range []int64{1, 9} {
		for _, n := range sizes {
			for _, sh := range shards {
				want := referenceText(n, seed, sh)
				for width := 1; width <= 4; width++ {
					got := generateText(n, seed, sh, width)
					if len(got) != len(want) {
						t.Fatalf("seed %d, %d bytes, shard %d/%d, width %d: %d splits, the reference %d",
							seed, n, sh.Index, sh.Count, width, len(got), len(want))
					}
					for k := range want {
						if got[k] != want[k] {
							t.Fatalf("seed %d, %d bytes, shard %d/%d, width %d: split %d differs (%d bytes, the reference %d)",
								seed, n, sh.Index, sh.Count, width, k, len(got[k]), len(want[k]))
						}
					}
				}
			}
		}
	}
}
