//go:build linux

package synth

import (
	"fmt"
	"syscall"
	"unsafe"
)

// newWide maps the memory kernel's table as anonymous private memory,
// outside the Go heap: the GC neither scans it nor counts it toward its
// goal, so a daemon whose live heap is a few MB is not paced as if it held
// 32 MB more. The mapping is never unmapped. A failed mapping panics, as
// the heap allocation it replaces would fail fatally: the kernel has no
// error path.
func newWide() []int64 {
	b, err := syscall.Mmap(-1, 0, wideWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANONYMOUS)
	if err != nil {
		panic(fmt.Sprintf("synth: mapping the memory kernel's %d MB table: %v", wideWords*8>>20, err))
	}
	offHeap.Store(int64(len(b)))
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), wideWords)
}
