package obs

import (
	"sync"
	"time"
)

// LogEvent is one entry of the service-wide bounded event log: a scheduler
// transition, memo outcome or lifecycle edge, timestamped and tagged
// with the job it concerns.
type LogEvent struct {
	// Seq is the monotonically increasing sequence number of the event
	// across the ring's lifetime; gaps at the front of a snapshot mean
	// older events were overwritten.
	Seq  uint64         `json:"seq"`
	Time time.Time      `json:"time"`
	Job  int            `json:"job,omitempty"`
	Kind string         `json:"kind"`
	Args map[string]any `json:"args,omitempty"`
}

// Ring is a fixed-capacity circular event log. Appends never block and
// overwrite the oldest entry once full, so the memory footprint of
// /debug/events is bounded no matter how long the service runs. All
// methods are safe for concurrent use and no-ops on a nil *Ring.
type Ring struct {
	mu  sync.Mutex
	buf []LogEvent
	// next is the total number of events ever appended; next % cap is
	// the slot the next event lands in.
	next uint64
}

// NewRing returns a ring holding the last capacity events; capacity <= 0
// returns nil (a valid, disabled ring).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		return nil
	}
	return &Ring{buf: make([]LogEvent, 0, capacity)}
}

// Append records an event stamped now. No-op on nil.
func (r *Ring) Append(kind string, job int, args map[string]any) {
	if r == nil {
		return
	}
	e := LogEvent{Time: time.Now(), Job: job, Kind: kind, Args: args}
	r.mu.Lock()
	e.Seq = r.next
	r.next++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[int(e.Seq)%cap(r.buf)] = e
	}
	r.mu.Unlock()
}

// Snapshot returns the retained events oldest-first, plus the total
// number of events ever appended (total - len(events) were overwritten).
func (r *Ring) Snapshot() (events []LogEvent, total uint64) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < cap(r.buf) {
		return append([]LogEvent(nil), r.buf...), r.next
	}
	// Full ring: the oldest entry sits at the next write slot.
	head := int(r.next) % cap(r.buf)
	events = make([]LogEvent, 0, len(r.buf))
	events = append(events, r.buf[head:]...)
	events = append(events, r.buf[:head]...)
	return events, r.next
}

// Cap returns the ring's capacity (0 on nil).
func (r *Ring) Cap() int {
	if r == nil {
		return 0
	}
	return cap(r.buf)
}
