package synth

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
)

// wideChild is the state of a child process's memory: the Go heap in use
// after a collection, the bytes mapped outside the heap, and the resident
// set (-1 where the platform does not report it).
type wideChild struct{ heapInuse, offHeap, rss int64 }

// runWideChild re-executes the test binary as a fresh process — one where
// no other test has run a kernel — that runs the memory kernel once when
// kernel is set, and returns its memory state.
func runWideChild(t *testing.T, kernel bool) wideChild {
	t.Helper()
	mode := "idle"
	if kernel {
		mode = "kernel"
	}
	cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$", "-test.count=1")
	cmd.Env = append(os.Environ(), "RAMR_WIDE_CHILD="+mode)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	c := wideChild{heapInuse: -1, offHeap: -1, rss: -1}
	for _, line := range strings.Split(string(out), "\n") {
		fmt.Sscanf(line, "wide-child %d %d %d", &c.heapInuse, &c.offHeap, &c.rss)
	}
	if c.heapInuse < 0 {
		t.Fatalf("child reported no memory state:\n%s", out)
	}
	return c
}

// wideChildMain is the child's side of runWideChild: it reports and
// returns true when this process is such a child.
func wideChildMain() bool {
	mode := os.Getenv("RAMR_WIDE_CHILD")
	if mode == "" {
		return false
	}
	if mode == "kernel" {
		Kernel{Memory, 20}.Run(1)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Printf("wide-child %d %d %d\n", ms.HeapInuse, OffHeapBytes(), residentBytes())
	return true
}

// residentBytes is this process's VmRSS, or -1 where /proc does not report it.
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(b), "\n") {
		var kb int64
		if _, err := fmt.Sscanf(line, "VmRSS: %d kB", &kb); err == nil {
			return kb << 10
		}
	}
	return -1
}

// TestWideBuiltOnFirstUse: a process that links the package but runs no
// memory kernel never builds the kernel's 32 MB table. Its heap stays small
// and nothing is mapped off the heap, so neither placement of the table
// may happen at init; and where the platform reports a resident set, that
// of a process that ran the kernel once is at least 24 MB larger, which no
// accounting of where the table lives can hide.
func TestWideBuiltOnFirstUse(t *testing.T) {
	if wideChildMain() {
		return
	}
	idle := runWideChild(t, false)
	if idle.heapInuse >= 16<<20 || idle.offHeap != 0 {
		t.Fatalf("a process that ran no memory kernel has %d MB of heap in use (want under 16) and %d bytes off the heap (want 0)",
			idle.heapInuse>>20, idle.offHeap)
	}
	if idle.rss < 0 {
		return
	}
	used := runWideChild(t, true)
	if grew := used.rss - idle.rss; grew < 24<<20 {
		t.Fatalf("running the memory kernel once grew the resident set by %d MB (%d -> %d), want at least 24: the table was resident before first use",
			grew>>20, idle.rss>>20, used.rss>>20)
	}
}

// TestWideOffHeap: once the memory kernel has run, its table is mapped
// outside the Go heap on Linux (OffHeapBytes is exactly
// the table) and the heap in use stays under 16 MB, so the GC paces the
// process by its own live heap and not by the table.
func TestWideOffHeap(t *testing.T) {
	if wideChildMain() {
		return
	}
	if runtime.GOOS != "linux" {
		t.Skipf("the table is a heap slice on %s", runtime.GOOS)
	}
	used := runWideChild(t, true)
	if used.offHeap != wideWords*8 {
		t.Fatalf("%d bytes off the heap after a memory-kernel run, want the table's %d", used.offHeap, wideWords*8)
	}
	if used.heapInuse >= 16<<20 {
		t.Fatalf("%d MB of heap in use with the table resident off the heap, want under 16", used.heapInuse>>20)
	}
}
