//go:build !linux

package synth

// newWide allocates the memory kernel's table on the Go heap, where the GC
// counts it as live.
func newWide() []int64 { return make([]int64, wideWords) }
