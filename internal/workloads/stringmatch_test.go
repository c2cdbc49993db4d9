package workloads

import (
	"strings"
	"testing"
)

func TestStringMatchReference(t *testing.T) {
	splits := GenerateSMText(60_000, seed)
	want := map[string]int{}
	for _, s := range splits {
		for _, w := range strings.Fields(s) {
			for _, p := range SMPatterns {
				if w == p {
					want[p]++
				}
			}
		}
	}
	job := StringMatchJob(60_000, seed)
	ra, err := job.Run(EngineRAMR, cfg())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := job.Run(EngineReference, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if ra.Digest != ref.Digest {
		t.Fatal("RAMR disagrees with the serial reference on SM")
	}
	if ra.Pairs != len(want) {
		t.Fatalf("%d patterns matched, want %d", ra.Pairs, len(want))
	}
	if len(want) == 0 {
		t.Fatal("generator spliced no patterns")
	}
}

func TestStringMatchSpecCounts(t *testing.T) {
	spec := StringMatchSpec([]string{"key1 foo key2 key1", "bar key1"}, SMPatterns)
	counts := map[string]int{}
	for _, s := range spec.Splits {
		spec.Map(s, func(k string, v int) { counts[k] += v })
	}
	if counts["key1"] != 3 || counts["key2"] != 1 || counts["key3"] != 0 {
		t.Fatalf("%v", counts)
	}
}
