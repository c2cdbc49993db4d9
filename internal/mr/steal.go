package mr

import (
	"fmt"

	"ramr/internal/telemetry"
)

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
// mappers of one RAMR run, bucketed by topology.StealClass: the ledger's
// telemetry.StealStats, whose comment gives their semantics.
type StealStats = telemetry.StealStats
