package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one
// operation form a tree under the operation's root span; aux spans
// (every poll, parallel shards off the critical path) are drawn in the
// Chrome trace but excluded from self-time accounting, because they
// overlap the tree spans that already account for the same interval.
type span struct {
	id, parent int // parent 0 = root span of an operation
	op         int // operation identifier shared by the tree
	name       string
	layer      string
	start, end time.Duration // since the tracer's epoch
	aux        bool
	lane       int // root spans: the client that ran the operation
}

// tracer keeps spans in memory until the run ends. A nil tracer is the
// untraced pass: every method is a no-op, so call sites need no branch.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	// traceOnly sums the wall time clients spent on calls made only
	// because tracing is on (trace fetches, worker result fetches).
	traceOnly time.Duration
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span and returns its id (0 on a nil tracer).
func (t *tracer) add(parent, op, lane int, name, layer string, start, end time.Time, aux bool) int {
	if t == nil {
		return 0
	}
	if end.Before(start) {
		end = start
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		id: id, parent: parent, op: op, name: name, layer: layer,
		start: start.Sub(t.epoch), end: end.Sub(t.epoch), aux: aux, lane: lane,
	})
	return id
}

// root records an operation's root span.
func (t *tracer) root(op, lane int, name string, start, end time.Time) int {
	return t.add(0, op, lane, name, "bench", start, end, false)
}

// child records a tree span under parent, clipped to the parent's
// interval: synthesised spans come from another process's clock and may
// stick out by a loopback hop, and a child outside its parent would be
// accounted twice.
func (t *tracer) child(parent, op int, name, layer string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	p := t.spans[parent-1]
	t.mu.Unlock()
	if lo := t.epoch.Add(p.start); start.Before(lo) {
		start = lo
	}
	if hi := t.epoch.Add(p.end); end.After(hi) {
		end = hi
	}
	return t.add(parent, op, 0, name, layer, start, end, false)
}

// auxSpan records a span that is drawn but not accounted.
func (t *tracer) auxSpan(op int, name, layer string, start, end time.Time) {
	t.add(0, op, 0, name, layer, start, end, true)
}

// noteTraceOnly accounts client time spent on a trace-only call.
func (t *tracer) noteTraceOnly(d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.traceOnly += d
	t.mu.Unlock()
}

// interval is a half-open time range.
type interval struct{ lo, hi time.Duration }

// covered returns how much of [lo, hi) the intervals cover, counting
// overlapping parts once.
func covered(lo, hi time.Duration, ivs []interval) time.Duration {
	var clipped []interval
	for _, iv := range ivs {
		if iv.lo < lo {
			iv.lo = lo
		}
		if iv.hi > hi {
			iv.hi = hi
		}
		if iv.hi > iv.lo {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total time.Duration
	cur := lo
	for _, iv := range clipped {
		if iv.lo > cur {
			cur = iv.lo
		}
		if iv.hi > cur {
			total += iv.hi - cur
			cur = iv.hi
		}
	}
	return total
}

// selfTimes returns each tree span's self time: its duration minus the
// part of that interval its child spans cover (choosing-metrics §4).
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][]interval)
	for _, s := range spans {
		if !s.aux && s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], interval{s.start, s.end})
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		if s.aux {
			continue
		}
		self[s.id] = (s.end - s.start) - covered(s.start, s.end, kids[s.id])
	}
	return self
}

// layerTable sums self time by layer and reports the worst
// per-operation coverage: the sum of an operation's self times as a
// share of its root span. 1 means the tree accounts for the whole
// operation exactly; overlapping siblings push it above 1.
type layerTable struct {
	selfByLayer map[string]time.Duration
	rootTotal   time.Duration
	coverMin    float64
	coverMax    float64
	ops         int
}

func (t *tracer) table() layerTable {
	lt := layerTable{selfByLayer: map[string]time.Duration{}, coverMin: 1, coverMax: 1}
	if t == nil {
		return lt
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	perOp := map[int]time.Duration{}
	rootDur := map[int]time.Duration{}
	for _, s := range spans {
		if s.aux {
			continue
		}
		lt.selfByLayer[s.layer] += self[s.id]
		perOp[s.op] += self[s.id]
		if s.parent == 0 {
			rootDur[s.op] += s.end - s.start
			lt.rootTotal += s.end - s.start
		}
	}
	for op, d := range rootDur {
		if d <= 0 {
			continue
		}
		lt.ops++
		c := float64(perOp[op]) / float64(d)
		if c < lt.coverMin {
			lt.coverMin = c
		}
		if c > lt.coverMax {
			lt.coverMax = c
		}
	}
	return lt
}

// chromeEvent is one Chrome trace-event record (ui.perfetto.dev loads
// the array form).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes every span as a complete ("X") event. Each client
// gets a block of lanes and tree depth selects the lane inside it, so
// nested spans stack and concurrent clients do not interleave; a
// client's aux spans share the last lane of its block.
func (t *tracer) writeChrome(path, workload string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	depth := make(map[int]int, len(spans))
	for _, s := range spans { // parents are always recorded before children
		if s.parent != 0 {
			depth[s.id] = depth[s.parent] + 1
		}
	}
	const lanesPerClient, auxLane = 10, 9
	laneOf := make(map[int]int)
	for _, s := range spans {
		if s.parent == 0 && !s.aux {
			laneOf[s.op] = s.lane
		}
	}
	events := []chromeEvent{{
		Name: "process_name", Ph: "M", PID: 1, TID: 0,
		Args: map[string]any{"name": "ramr bench: " + workload},
	}}
	for _, s := range spans {
		tid := laneOf[s.op]*lanesPerClient + depth[s.id]
		if s.aux {
			tid = laneOf[s.op]*lanesPerClient + auxLane
		}
		events = append(events, chromeEvent{
			Name: s.name, Cat: s.layer, Ph: "X",
			Ts:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
			PID: 1, TID: tid,
			Args: map[string]any{"op": s.op, "span": s.id, "parent": s.parent},
		})
	}
	b, err := json.Marshal(events)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
