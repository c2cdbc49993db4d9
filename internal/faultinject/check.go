package faultinject

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"ramr/internal/spsc"
)

// QueueReport is one mapper queue's state after pipeline shutdown, as
// delivered through the QueueObserver hook.
type QueueReport struct {
	// Queue is the mapper/queue index.
	Queue int
	// Drained reports spsc.Queue.Drained at observation time.
	Drained bool
	// Stats is the queue's counter snapshot.
	Stats spsc.Stats
}

// CheckQueues asserts the drain contract over the recorded reports: every
// queue was closed and fully consumed, and element conservation held —
// Pushes == Pops, whether the elements were combined or discarded on an
// abort path. It returns the first violation, or nil.
func CheckQueues(reports []QueueReport) error {
	for _, r := range reports {
		if !r.Drained {
			return fmt.Errorf("faultinject: queue %d not drained after shutdown (pushes=%d pops=%d)",
				r.Queue, r.Stats.Pushes, r.Stats.Pops)
		}
		if r.Stats.Pushes != r.Stats.Pops {
			return fmt.Errorf("faultinject: queue %d conservation violated: pushes=%d pops=%d",
				r.Queue, r.Stats.Pushes, r.Stats.Pops)
		}
	}
	return nil
}

// workerSites are the stack substrings that identify a goroutine as
// belonging to the runtime's worker pools or queue machinery. The list
// names functions, not bare package paths, so a test function in the same
// package (whose own stack mentions the package) never matches itself.
var workerSites = []string{
	"ramr/internal/core.RunContext",
	"ramr/internal/core.StartCombiners",
	"ramr/internal/core.(*Lane",
	"ramr/internal/phoenix.RunContext",
	"ramr/internal/sched.(*Scheduler).startLocked",
	"ramr/internal/sched.runSafe",
	"ramr/internal/stream.(",
	"ramr/internal/spsc.(",
	"ramr/internal/mr.MergeContainers",
	"ramr/internal/mr.ReduceAll",
	"ramr/internal/mr.SortPairsParallel",
	"ramr/internal/container.Merge",
}

// WorkerStacks returns the stack blocks of live goroutines that are
// running inside, or were created by, the runtime's worker machinery.
func WorkerStacks() []string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	var out []string
	for _, block := range strings.Split(string(buf[:n]), "\n\n") {
		for _, site := range workerSites {
			if strings.Contains(block, site) {
				out = append(out, block)
				break
			}
		}
	}
	return out
}

// AwaitNoWorkers polls until no worker goroutines remain, returning nil,
// or returns the leaked stacks once the timeout expires. Both engines
// join their pools before returning, so anything still alive shortly
// after a run is a lifecycle leak — the poll only absorbs scheduler lag
// between a goroutine's final send and its exit.
func AwaitNoWorkers(timeout time.Duration) []string {
	deadline := time.Now().Add(timeout)
	for {
		leaked := WorkerStacks()
		if len(leaked) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(time.Millisecond)
	}
}
