package synth

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
)

// TestWideBuiltOnFirstUse: a process that links the package but runs no
// memory kernel never builds the kernel's 32 MB table, so its heap stays
// small. The check runs in a re-exec'd child of the test binary, where no
// other test has run a kernel yet.
func TestWideBuiltOnFirstUse(t *testing.T) {
	if os.Getenv("RAMR_WIDE_CHILD") == "1" {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		fmt.Printf("heap-inuse %d\n", ms.HeapInuse)
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestWideBuiltOnFirstUse$", "-test.count=1")
	cmd.Env = append(os.Environ(), "RAMR_WIDE_CHILD=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	var inuse uint64 = 1 << 63
	for _, line := range strings.Split(string(out), "\n") {
		fmt.Sscanf(line, "heap-inuse %d", &inuse)
	}
	if inuse >= 16<<20 {
		t.Fatalf("a process that ran no memory kernel has %d MB of heap in use, want under 16 (child output:\n%s)", inuse>>20, out)
	}
}
