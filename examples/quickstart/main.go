// Quickstart: count words with the RAMR runtime in ~30 lines.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"strings"
)

import "ramr"

func main() {
	// Input is pre-partitioned into splits; here, one string per line.
	splits := []string{
		"the quick brown fox jumps over the lazy dog",
		"the dog barks and the fox runs",
		"quick quick slow the fox naps",
	}

	spec := &ramr.Spec[string, string, int, int]{
		Name:   "quickstart-wordcount",
		Splits: splits,
		Map: func(line string, emit func(string, int)) {
			for _, w := range strings.Fields(line) {
				emit(w, 1)
			}
		},
		Combine:      ramr.Sum[int](),
		Reduce:       ramr.IdentityReduce[string, int](),
		NewContainer: ramr.HashFactory[string, int](),
		Less:         func(a, b string) bool { return a < b },
	}

	res, err := ramr.Run(spec, ramr.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range res.Pairs {
		fmt.Printf("%-6s %d\n", p.Key, p.Value)
	}
	fmt.Printf("\nphases: %s\n", res.Phases)
}
