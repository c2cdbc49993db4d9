package workloads

import (
	"fmt"
	"strings"

	"ramr/internal/container"
	"ramr/internal/mr"
)

// String Match (SM) is the seventh app of the original Phoenix suite. The
// DATE'20 paper evaluates six apps, so SM does not appear in any figure —
// it is included here as a suite extension (see DESIGN.md §5) and gives
// the test matrix a map-only workload: map scans the corpus for a fixed
// set of target words and emits one hit per occurrence; combine is plain
// counting and the output key range is tiny (one key per pattern).

// SMPatterns is the default target set, mirroring Phoenix's four keys.
var SMPatterns = []string{"key1", "key2", "key3", "key4"}

// GenerateSMText builds a corpus of about n bytes in which the patterns
// occur with known frequency (~1 in 32 words is a pattern occurrence).
func GenerateSMText(n int, seed int64) []string {
	base := GenerateText(n, seed)
	// Splice pattern occurrences in deterministically.
	out := make([]string, len(base))
	for i, s := range base {
		var b strings.Builder
		words := strings.Fields(s)
		for w, word := range words {
			if (i*7+w)%32 == 0 {
				b.WriteString(SMPatterns[(i+w)%len(SMPatterns)])
			} else {
				b.WriteString(word)
			}
			b.WriteByte(' ')
		}
		out[i] = b.String()
	}
	return out
}

// StringMatchSpec builds the SM job: count occurrences of each pattern.
func StringMatchSpec(splits []string, patterns []string) *mr.Spec[string, string, int, int] {
	set := make(map[string]bool, len(patterns))
	for _, p := range patterns {
		set[p] = true
	}
	return &mr.Spec[string, string, int, int]{
		Name:   "SM",
		Splits: splits,
		Map: func(s string, emit func(string, int)) {
			for _, w := range strings.Fields(s) {
				if set[w] {
					emit(w, 1)
				}
			}
		},
		Combine:      container.Sum[int](),
		Reduce:       mr.IdentityReduce[string, int](),
		NewContainer: func() container.Container[string, int] { return container.NewHash[string, int]() },
		Less:         func(a, b string) bool { return a < b },
	}
}

// StringMatchJob instantiates SM over ~nBytes of synthetic text.
func StringMatchJob(nBytes int, seed int64) *Job {
	splits := GenerateSMText(nBytes, seed)
	spec := StringMatchSpec(splits, SMPatterns)
	j := &Job{
		App:       "SM",
		FullName:  "String Match (suite extension)",
		Container: container.KindHash,
		InputDesc: fmt.Sprintf("%d bytes, %d patterns", nBytes, len(SMPatterns)),
	}
	return BindSpec(j, spec, nil, wcPairDigest, nil) // string counts, as WC's
}
