package workloads

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"ramr/internal/container"
	"ramr/internal/mr"
	"ramr/internal/stats"
)

// wcVocab is the vocabulary size of the synthetic corpus. The word
// frequency follows a Zipf distribution, matching real text closely enough
// that the hash container sees the same skewed update pattern Word Count
// produces on natural language.
const wcVocab = 5000

// wcSplitBytes is the target bytes per split (word-boundary aligned).
const wcSplitBytes = 16 << 10

// GenerateText builds a deterministic synthetic corpus of about n bytes,
// pre-partitioned into word-aligned splits.
func GenerateText(n int, seed int64) []string {
	return generateText(n, seed, ShardSpec{Index: 0, Count: 1})
}

// generateText builds the splits shard sh owns of the n-byte corpus, in
// index order. The corpus has ceil(n/wcSplitBytes) splits; split i is words
// drawn from substream i of the seed's "wordcount" stream until its byte
// quota is met, so a shard pays for its own only. One vocabulary per seed.
func generateText(n int, seed int64, sh ShardSpec) []string {
	rng := stats.Rng(seed, "wordcount")
	vocab := make([]string, wcVocab)
	const letters = "abcdefghijklmnopqrstuvwxyz"
	for i := range vocab {
		l := 3 + rng.Intn(10)
		b := make([]byte, l)
		for j := range b {
			b[j] = letters[rng.Intn(len(letters))]
		}
		vocab[i] = string(b)
	}
	src := stats.NewStream(seed, "wordcount")
	zipf := stats.NewZipf(rand.New(src), 1.2, uint64(wcVocab))

	var splits []string
	var cur strings.Builder
	for i := sh.Index; i*wcSplitBytes < n; i += sh.Count {
		src.Seek(i)
		for quota := min(wcSplitBytes, n-i*wcSplitBytes); cur.Len() < quota; {
			cur.WriteString(vocab[zipf.Next()])
			cur.WriteByte(' ')
		}
		splits = append(splits, cur.String())
		cur.Reset()
	}
	return splits
}

// wcContainer builds the container factory for the chosen configuration.
func wcContainer(kind container.Kind) container.Factory[string, int] {
	switch kind {
	case container.KindFixedHash:
		return func() container.Container[string, int] {
			return container.NewFixedHash[string, int](wcVocab*2, container.HashString)
		}
	default:
		return func() container.Container[string, int] { return container.NewHash[string, int]() }
	}
}

// WordCountSpec builds the WC job over the given splits.
func WordCountSpec(splits []string, kind container.Kind) *mr.Spec[string, string, int, int] {
	return &mr.Spec[string, string, int, int]{
		Name:   "WC",
		Splits: splits,
		Map: func(s string, emit func(string, int)) {
			start := -1
			for i := 0; i <= len(s); i++ {
				if i < len(s) && s[i] != ' ' {
					if start < 0 {
						start = i
					}
					continue
				}
				if start >= 0 {
					emit(s[start:i], 1)
					start = -1
				}
			}
		},
		Combine:      func(a, b int) int { return a + b },
		Reduce:       mr.IdentityReduce[string, int](),
		NewContainer: wcContainer(kind),
		Less:         func(a, b string) bool { return a < b },
	}
}

// WordCountJob instantiates Word Count over ~nBytes of synthetic text.
// Word Count is the enterprise-domain app of the suite: per-word emission
// into a hash container, arbitrary key set.
func WordCountJob(nBytes int, kind container.Kind, seed int64) *Job {
	splits := GenerateText(nBytes, seed)
	spec := WordCountSpec(splits, kind)
	j := &Job{
		App:       "WC",
		FullName:  "Word Count",
		Container: kind,
		InputDesc: fmt.Sprintf("%d words-bytes in %d splits", nBytes, len(splits)),
	}
	return j.Bind(func(ctx context.Context, eng Engine, cfg mr.Config) (*RunInfo, error) {
		return RunTypedContext(ctx, spec, eng, cfg, wcPairDigest)
	})
}

// wcPairDigest folds one WC output pair into the run's order-independent
// digest. Shard merging (shard.go) re-applies the same fold over the
// merged container, so a sharded run's final digest is byte-identical to
// the single-node run's.
func wcPairDigest(k string, v int) uint64 {
	return mix(container.HashString(k) ^ mix(uint64(v)))
}
