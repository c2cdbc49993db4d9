package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// setChildAttrs makes the kernel kill the child if the benchmark dies
// without running its deferred stops.
func setChildAttrs(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// resetPeakRSS returns this process's freed memory to the OS and resets
// its resident-set high-water mark, so that a library workload run
// after another in one process reports its own peak, as it does when it
// has the process to itself.
func resetPeakRSS() {
	debug.FreeOSMemory()
	// "5" clears the peak; the file is absent or read-only on some
	// kernels, where the mark simply stays.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM, the resident-set high-water mark, of a process
// (pid 0 = this one) in MiB; 0 when /proc does not say.
func peakRSSMB(pid int) float64 {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
