package ramr_test

import (
	"fmt"
	"strings"

	"ramr"
)

// ExampleRun counts words with the RAMR engine.
func ExampleRun() {
	spec := &ramr.Spec[string, string, int, int]{
		Name:   "wordcount",
		Splits: []string{"a b a", "b c b"},
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
	cfg := ramr.DefaultConfig()
	cfg.Mappers, cfg.Combiners = 2, 1
	res, err := ramr.Run(spec, cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, p := range res.Pairs {
		fmt.Printf("%s=%d\n", p.Key, p.Value)
	}
	// Output:
	// a=2
	// b=3
	// c=1
}

// ExampleRunPhoenix runs the same job on the fused baseline; the outputs
// are identical, only the execution strategy differs.
func ExampleRunPhoenix() {
	spec := &ramr.Spec[int, int, int, int]{
		Name:   "sum-mod",
		Splits: []int{0, 1, 2, 3, 4, 5, 6, 7},
		Map: func(s int, emit func(int, int)) {
			emit(s%2, s)
		},
		Combine:      ramr.Sum[int](),
		Reduce:       ramr.IdentityReduce[int, int](),
		NewContainer: ramr.FixedArrayFactory[int](2),
		Less:         func(a, b int) bool { return a < b },
	}
	cfg := ramr.DefaultConfig()
	cfg.Mappers, cfg.Combiners = 2, 1
	res, err := ramr.RunPhoenix(spec, cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("even:", res.Pairs[0].Value, "odd:", res.Pairs[1].Value)
	// Output:
	// even: 12 odd: 16
}

// ExampleTuneRatio shows the §III-B throughput-driven ratio tuner on a
// parse-heavy job: the mapper-to-combiner ratio comes out well above 1.
func ExampleTuneRatio() {
	splits := make([]string, 64)
	for i := range splits {
		splits[i] = strings.Repeat("alpha beta gamma delta ", 50)
	}
	spec := &ramr.Spec[string, string, int, int]{
		Name:   "parse-heavy",
		Splits: splits,
		Map: func(s string, emit func(string, int)) {
			for _, w := range strings.Fields(s) { // parsing dominates
				emit(w, 1)
			}
		},
		Combine:      ramr.Sum[int](),
		Reduce:       ramr.IdentityReduce[string, int](),
		NewContainer: ramr.HashFactory[string, int](),
	}
	ratio, err := ramr.TuneRatio(spec, ramr.DefaultConfig())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("ratio >= 1:", ratio >= 1)
	// Output:
	// ratio >= 1: true
}
