package mr

// Reference runs spec serially and returns its output: the oracle both
// engines are checked against. One goroutine maps every split in order
// into a plain Go map, storing a key's first value and folding each later
// one into it with Combine, then reduces every key and orders the output
// with SortPairs. It uses no container, pool or parallel merge, so a fault
// shared by the engines' one batch body cannot cancel out of a comparison
// with it. A panic in user code propagates to the caller.
func Reference[S any, K comparable, V, R any](spec *Spec[S, K, V, R]) []Pair[K, R] {
	acc := map[K]V{}
	for _, s := range spec.Splits {
		spec.Map(s, func(k K, v V) {
			if old, ok := acc[k]; ok {
				v = spec.Combine(old, v)
			}
			acc[k] = v
		})
	}
	out := make([]Pair[K, R], 0, len(acc))
	for k, v := range acc {
		out = append(out, Pair[K, R]{k, spec.Reduce(k, v)})
	}
	SortPairs(out, spec.Less)
	return out
}
