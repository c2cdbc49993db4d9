package container

// ProbesPerUpdate is the mean number of slots a steady-state update of a key
// h holds visits, each key updated alike: one for its home slot plus its
// distance from there.
func ProbesPerUpdate[K comparable, V any](h *FixedHash[K, V]) float64 {
	steps := 0
	for i := range h.keys {
		if h.occupied(i) {
			steps += 1 + int((uint64(i)-h.home(h.keys[i]))&h.mask)
		}
	}
	return float64(steps) / float64(h.n)
}
