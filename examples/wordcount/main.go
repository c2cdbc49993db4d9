// Wordcount: the paper's enterprise-domain benchmark app on the public
// API, with container selection, knob tuning, and an engine comparison.
//
//	go run ./examples/wordcount -mb 8 -container fixed-hash -compare
//	go run ./examples/wordcount -file /usr/share/dict/words
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"
	"time"
)

import "ramr"

// generate builds a synthetic Zipf-ish corpus of about n bytes.
func generate(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	vocab := make([]string, 4000)
	const letters = "abcdefghijklmnopqrstuvwxyz"
	for i := range vocab {
		b := make([]byte, 3+rng.Intn(9))
		for j := range b {
			b[j] = letters[rng.Intn(len(letters))]
		}
		vocab[i] = string(b)
	}
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(vocab)-1))
	var splits []string
	var cur strings.Builder
	total := 0
	for total < n {
		w := vocab[zipf.Uint64()]
		cur.WriteString(w)
		cur.WriteByte(' ')
		total += len(w) + 1
		if cur.Len() >= 16<<10 {
			splits = append(splits, cur.String())
			cur.Reset()
		}
	}
	if cur.Len() > 0 {
		splits = append(splits, cur.String())
	}
	return splits
}

// chunk splits file contents on whitespace boundaries.
func chunk(data string) []string {
	var splits []string
	const target = 16 << 10
	for len(data) > 0 {
		end := target
		if end >= len(data) {
			splits = append(splits, data)
			break
		}
		for end < len(data) && data[end] != ' ' && data[end] != '\n' {
			end++
		}
		splits = append(splits, data[:end])
		data = data[end:]
	}
	return splits
}

func buildSpec(splits []string, containerKind string) (*ramr.Spec[string, string, int, int], error) {
	spec := &ramr.Spec[string, string, int, int]{
		Name:   "wordcount",
		Splits: splits,
		Map: func(s string, emit func(string, int)) {
			for _, w := range strings.Fields(s) {
				emit(w, 1)
			}
		},
		Combine: ramr.Sum[int](),
		Reduce:  ramr.IdentityReduce[string, int](),
		Less:    func(a, b string) bool { return a < b },
	}
	switch containerKind {
	case "hash":
		spec.NewContainer = ramr.HashFactory[string, int]()
	case "fixed-hash":
		// Fixed-capacity open addressing: declare a distinct-word bound.
		spec.NewContainer = ramr.FixedHashFactory[string, int](64_000, ramr.HashString)
	default:
		return nil, fmt.Errorf("unknown container %q (want hash|fixed-hash)", containerKind)
	}
	return spec, nil
}

func main() {
	mb := flag.Int("mb", 4, "synthetic corpus size in MiB (ignored with -file)")
	file := flag.String("file", "", "count words of this file instead of a synthetic corpus")
	containerKind := flag.String("container", "hash", "intermediate container: hash | fixed-hash")
	compare := flag.Bool("compare", false, "also run the Phoenix++ baseline and report the speedup")
	top := flag.Int("top", 10, "print the N most frequent words")
	flag.Parse()

	var splits []string
	if *file != "" {
		data, err := os.ReadFile(*file)
		if err != nil {
			log.Fatal(err)
		}
		splits = chunk(string(data))
	} else {
		splits = generate(*mb<<20, 1)
	}

	spec, err := buildSpec(splits, *containerKind)
	if err != nil {
		log.Fatal(err)
	}

	// Knobs come from RAMR_* environment variables when set.
	cfg, err := ramr.ConfigFromEnv()
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	res, err := ramr.Run(spec, cfg)
	if err != nil {
		log.Fatal(err)
	}
	ramrTime := time.Since(start)
	fmt.Printf("RAMR: %d distinct words in %v  (%s)\n", len(res.Pairs), ramrTime, res.Phases)

	// Top-N by count.
	byCount := append([]ramr.Pair[string, int](nil), res.Pairs...)
	for i := 0; i < *top && i < len(byCount); i++ {
		maxJ := i
		for j := i + 1; j < len(byCount); j++ {
			if byCount[j].Value > byCount[maxJ].Value {
				maxJ = j
			}
		}
		byCount[i], byCount[maxJ] = byCount[maxJ], byCount[i]
		fmt.Printf("  %2d. %-12s %d\n", i+1, byCount[i].Key, byCount[i].Value)
	}

	if *compare {
		start = time.Now()
		base, err := ramr.RunPhoenix(spec, cfg)
		if err != nil {
			log.Fatal(err)
		}
		phxTime := time.Since(start)
		fmt.Printf("Phoenix++: %d distinct words in %v\n", len(base.Pairs), phxTime)
		fmt.Printf("speedup (Phoenix/RAMR): %.2fx\n", phxTime.Seconds()/ramrTime.Seconds())
	}
}
