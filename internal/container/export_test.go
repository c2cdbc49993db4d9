package container

// ProbesPerUpdate is the mean number of slots a steady-state update of a key
// h holds visits, each key updated alike: one for its home slot plus its
// distance from there.
func ProbesPerUpdate[K comparable, V any](h *Hash[K, V]) float64 {
	steps := 0
	h.Iterate(func(k K, _ V) bool {
		i, _ := h.find(k)
		steps += 1 + int((i-h.homeOf(k))&h.mask)
		return true
	})
	return float64(steps) / float64(h.n)
}

// homeOf returns k's home slot, where its probe sequence starts.
func (h *Hash[K, V]) homeOf(k K) uint64 { return home(h.hashOf(k), h.shift) }
