package mr

import "fmt"

// StealPolicy selects how idle mappers obtain work once their locality
// group's task deque drains (§III task steering, extended with OS4M-style
// operation-level balancing).
type StealPolicy int

const (
	// StealChunked is the default: mappers take chunked task batches from
	// their own group's deque and, when it drains, steal half the
	// remaining batch from the nearest non-empty group in the machine's
	// distance-ranked victim order.
	StealChunked StealPolicy = iota
	// StealOff restricts every mapper to its own group's deque — the
	// static steering baseline. Groups without mappers are seeded zero
	// tasks, so the policy always terminates.
	StealOff
)

// String names the policy as accepted by RAMR_STEAL.
func (p StealPolicy) String() string {
	switch p {
	case StealChunked:
		return "chunked"
	case StealOff:
		return "off"
	default:
		return fmt.Sprintf("StealPolicy(%d)", int(p))
	}
}

// ParseStealPolicy maps a string (as accepted in RAMR_STEAL) to a policy.
func ParseStealPolicy(s string) (StealPolicy, error) {
	switch s {
	case "chunked", "on":
		return StealChunked, nil
	case "off", "none":
		return StealOff, nil
	default:
		return 0, fmt.Errorf("mr: unknown steal policy %q (want chunked|off)", s)
	}
}

// StealStats aggregates the map phase's task-steering counters across all
// mappers of one RAMR run, bucketed by topology.StealClass, as core.Books
// reads them off the run's ledger. "Local" takes are ordinary dequeues
// from the mapper's own group; "socket" and "remote" count true steals,
// split by whether a shared cache level still spans thief and victim.
// Counted at take time; RemoteExecuted is counted at task completion, so
// for an uncancelled run RemoteExecuted == SocketTasks + RemoteTasks
// exactly (a stolen batch is executed privately by the thief and never
// re-enqueued).
type StealStats struct {
	LocalBatches   uint64 `json:"local_batches"`
	LocalTasks     uint64 `json:"local_tasks"`
	SocketBatches  uint64 `json:"socket_batches"`
	SocketTasks    uint64 `json:"socket_tasks"`
	RemoteBatches  uint64 `json:"remote_batches"`
	RemoteTasks    uint64 `json:"remote_tasks"`
	RemoteExecuted uint64 `json:"remote_executed"`
}

// Add folds another run's stats into the aggregate.
func (s *StealStats) Add(o StealStats) {
	s.LocalBatches += o.LocalBatches
	s.LocalTasks += o.LocalTasks
	s.SocketBatches += o.SocketBatches
	s.SocketTasks += o.SocketTasks
	s.RemoteBatches += o.RemoteBatches
	s.RemoteTasks += o.RemoteTasks
	s.RemoteExecuted += o.RemoteExecuted
}

// StolenTasks returns the tasks moved out of their seeded group.
func (s StealStats) StolenTasks() uint64 { return s.SocketTasks + s.RemoteTasks }

// TotalTasks returns all tasks taken, local and stolen.
func (s StealStats) TotalTasks() uint64 { return s.LocalTasks + s.StolenTasks() }

// StealRate returns the fraction of tasks that were stolen; zero when no
// tasks were taken.
func (s StealStats) StealRate() float64 {
	t := s.TotalTasks()
	if t == 0 {
		return 0
	}
	return float64(s.StolenTasks()) / float64(t)
}

// Balanced reports the conservation invariant: every stolen task was
// executed by its thief. It holds for every run that completes without
// cancellation or abort.
func (s StealStats) Balanced() bool { return s.StolenTasks() == s.RemoteExecuted }

// String renders the counters on one line for reports.
func (s StealStats) String() string {
	return fmt.Sprintf("%d local tasks (%d batches), %d socket-stolen (%d), %d remote-stolen (%d), %d executed remotely (%.1f%% steal rate)",
		s.LocalTasks, s.LocalBatches, s.SocketTasks, s.SocketBatches,
		s.RemoteTasks, s.RemoteBatches, s.RemoteExecuted, s.StealRate()*100)
}
