package workloads

import (
	"fmt"
	"strings"
	"unsafe"

	"ramr/internal/container"
	"ramr/internal/mr"
	"ramr/internal/stats"
)

// wcVocab is the vocabulary size of the synthetic corpus. The word
// frequency follows a Zipf distribution, matching real text closely enough
// that the hash container sees the same skewed update pattern Word Count
// produces on natural language.
const wcVocab = 5000

// WCFixedKeys is the distinct-key bound WC's fixed-size table declares:
// twice the generated vocabulary. A table past it panics.
const WCFixedKeys = 2 * wcVocab

// wcSplitBytes is the target bytes per split (word-boundary aligned).
const wcSplitBytes = 16 << 10

// GenerateText builds a deterministic synthetic corpus of about n bytes,
// pre-partitioned into word-aligned splits.
func GenerateText(n int, seed int64) []string {
	return generateText(n, seed, whole, 0)
}

// generateText builds the splits shard sh owns of the n-byte corpus, in
// index order, on width goroutines. The corpus has ceil(n/wcSplitBytes)
// splits; split i is words drawn from substream i of the seed's "wordcount"
// stream until its byte quota is met, so a shard pays for its own only. One
// vocabulary per seed.
//
// Each vocabulary word sits with its trailing space in a 16-byte slot, so
// writing a word is one 16-byte store at the write position, which then
// advances by the word's length; the store's tail lands past the word, where
// the next word (or the buffer's slack) goes.
func generateText(n int, seed int64, sh ShardSpec, width int) []string {
	rng := stats.Rng(seed, "wordcount")
	var vocab [wcVocab]wcWord
	longest := 0
	const letters = "abcdefghijklmnopqrstuvwxyz"
	for i := range vocab {
		l := 3 + rng.Intn(10)
		for j := range l {
			vocab[i].text[j] = letters[rng.Intn(len(letters))]
		}
		vocab[i].text[l] = ' '
		vocab[i].len = l + 1
		longest = max(longest, l)
	}
	splits := make([]string, sh.Owned((n+wcSplitBytes-1)/wcSplitBytes))
	FillSplits(len(splits), width, func(lo, hi int) {
		src := stats.NewStream(seed, "wordcount")
		zipf := stats.NewStreamZipf(src, 1.2, wcVocab)
		// A split's last word starts below its quota, so the split ends
		// within quota+longest bytes, and its last store within
		// quota+len(slot): a buffer of that much per split, and one slot
		// more, holds the whole run, and each split is a slice of it.
		buf := make([]byte, (hi-lo)*(wcSplitBytes+longest)+len(wcWord{}.text))
		p := 0
		for k := lo; k < hi; k++ {
			i := sh.Index + k*sh.Count
			src.Seek(i)
			start := p
			for quota := start + min(wcSplitBytes, n-i*wcSplitBytes); p < quota; {
				w := &vocab[zipf.Next()]
				*(*[16]byte)(buf[p:]) = w.text
				p += w.len
			}
			// The split is a string over its bytes, uncopied, as
			// strings.Builder.String gives one: every later store lands
			// at p or past it, so they never change.
			splits[k] = unsafe.String(&buf[start], p-start)
		}
	})
	return splits
}

// wcWord is a vocabulary word and its trailing space, in one 16-byte slot
// (words are 3-12 bytes), and the length of both.
type wcWord struct {
	text [16]byte
	len  int
}

// wcContainer builds the container factory for the chosen configuration.
func wcContainer(kind container.Kind) container.Factory[string, int] {
	switch kind {
	case container.KindFixedHash:
		return func() container.Container[string, int] {
			return container.NewFixedHash[string, int](WCFixedKeys, container.HashString)
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
		// Map emits each run of non-space bytes, uncopied: the words of
		// strings.Split(s, " ") with the empty ones dropped, in order.
		Map: func(s string, emit func(string, int)) {
			for len(s) > 0 {
				i := strings.IndexByte(s, ' ')
				if i < 0 {
					emit(s, 1)
					return
				}
				if i > 0 {
					emit(s[:i], 1)
				}
				s = s[i+1:]
			}
		},
		Combine:      container.Sum[int](),
		Reduce:       mr.IdentityReduce[string, int](),
		NewContainer: wcContainer(kind),
		Less:         func(a, b string) bool { return a < b },
	}
}

// WordCountJob instantiates Word Count over ~nBytes of synthetic text —
// shard sh of it when sh is non-nil, exporting its word→count container
// (see BindSpec) — built on width goroutines. Word Count is the
// enterprise-domain app of the suite: per-word emission into a hash
// container, arbitrary key set.
func WordCountJob(nBytes int, kind container.Kind, seed int64, sh *ShardSpec, width int) *Job {
	splits := generateText(nBytes, seed, sh.orWhole(), width)
	j := &Job{
		App:       "WC",
		FullName:  "Word Count",
		Container: kind,
		InputDesc: fmt.Sprintf("%d words-bytes in %d splits", nBytes, len(splits)),
	}
	return BindSpec(j, WordCountSpec(splits, kind), sh, wcPairDigest, wordPartial)
}

// wcPairDigest folds one WC output pair into the run's order-independent
// digest; a merged partial's Summary re-applies it, so a sharded run's
// final digest is byte-identical to the single-node run's.
func wcPairDigest(k string, v int) uint64 {
	return mix(fnv1a(k) ^ mix(uint64(v)))
}
