// Package obs is the job-scoped lifecycle observability layer of the
// service tier: one Recorder per submitted job collects the spans of the
// job's journey through the stack — HTTP receive, content-digest/memo
// outcome, scheduler queue wait, grant allocation, engine phases — and
// exports them, together with the engine's per-worker timelines from
// internal/trace, as a single Chrome trace-event JSON document. One
// Perfetto load then shows the service-tier spans above the worker lanes
// of the same run, which is what makes queue-wait-dominated and
// compute-dominated jobs distinguishable at a glance (EXPERIMENTS.md has
// the reading recipe).
//
// Every method is safe on a nil *Recorder and allocates nothing there, so
// call sites never nil-check: with observability disabled the hot path
// pays one predictable branch per call. A live Recorder takes a mutex per
// recorded span — the service tier records a handful of spans per job, so
// contention is irrelevant; the engine's high-frequency worker spans stay
// in internal/trace's unsynchronized shards and are only stitched in at
// export time.
package obs

import (
	"encoding/json"
	"errors"
	"io"
	"sort"
	"sync"
	"time"

	"ramr/internal/trace"
)

// Span is one completed interval on the job's lifecycle timeline.
type Span struct {
	// Name labels the span ("build", "queue-wait", "execute", ...).
	Name string
	// Start and End are absolute times (the recorder keeps absolute
	// times so spans stitched from different clocks — scheduler
	// timestamps, engine collector offsets — line up on one axis).
	Start, End time.Time
	// Args carries optional details (the granted CPU set, the memo
	// outcome); shared with the recorder, do not mutate.
	Args map[string]any
}

// Instant is a point event on the lifecycle timeline (memo hit,
// coalesce, tuner decision, cancellation).
type Instant struct {
	Name string
	At   time.Time
	Args map[string]any
}

// Recorder collects one job's lifecycle trace. The zero value is not
// usable; construct with New. All methods are safe for concurrent use
// and no-ops on a nil receiver.
type Recorder struct {
	mu       sync.Mutex
	name     string
	epoch    time.Time
	finished time.Time
	status   string
	errText  string
	jobID    int
	workload string
	spans    []Span
	instants []Instant
	engines  []*trace.Collector
}

// New returns a Recorder whose epoch (the root span's start) is now.
// name labels the root span; the service uses "job".
func New(name string) *Recorder {
	return &Recorder{name: name, epoch: time.Now()}
}

// noopEnd is the shared end function returned by Span on a nil receiver,
// so the disabled path allocates no closure.
var noopEnd = func() {}

// Span starts a span now and returns the function that ends it:
//
//	defer rec.Span("build", nil)()
func (r *Recorder) Span(name string, args map[string]any) func() {
	if r == nil {
		return noopEnd
	}
	start := time.Now()
	return func() { r.SpanAt(name, start, time.Now(), args) }
}

// SpanAt records an already-measured span with absolute bounds. Spans
// whose End precedes Start are clamped to zero length. No-op on nil.
func (r *Recorder) SpanAt(name string, start, end time.Time, args map[string]any) {
	if r == nil {
		return
	}
	if end.Before(start) {
		end = start
	}
	r.mu.Lock()
	r.spans = append(r.spans, Span{Name: name, Start: start, End: end, Args: args})
	r.mu.Unlock()
}

// Instant records a point event now. No-op on nil.
func (r *Recorder) Instant(name string, args map[string]any) {
	if r == nil {
		return
	}
	r.InstantAt(name, time.Now(), args)
}

// InstantAt records a point event at an explicit time. No-op on nil.
func (r *Recorder) InstantAt(name string, at time.Time, args map[string]any) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.instants = append(r.instants, Instant{Name: name, At: at, Args: args})
	r.mu.Unlock()
}

// SetJob attaches the job's identity (known only after admission) to the
// root span. No-op on nil.
func (r *Recorder) SetJob(id int, workload string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.jobID = id
	r.workload = workload
	r.mu.Unlock()
}

// AttachEngine registers an engine trace collector whose worker lanes
// are stitched under the job's root span at export time. The collector's
// own epoch (trace.Collector.Epoch) re-bases its relative offsets onto
// the recorder's absolute axis. No-op on nil.
func (r *Recorder) AttachEngine(c *trace.Collector) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	r.engines = append(r.engines, c)
	r.mu.Unlock()
}

// Finish closes the root span with a terminal status ("done",
// "canceled", "cached", "coalesced", ...). The first call wins;
// subsequent calls are no-ops, as is a call on nil.
func (r *Recorder) Finish(status string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.finished.IsZero() {
		r.finished = time.Now()
		r.status = status
	}
	r.mu.Unlock()
}

// SetError attaches the error a job ended with to the root span's args,
// so a failed run's trace tells itself from a clean one whatever status
// it closes with. No-op on nil or a nil error.
func (r *Recorder) SetError(err error) {
	if r == nil || err == nil {
		return
	}
	r.mu.Lock()
	r.errText = err.Error()
	r.mu.Unlock()
}

// Finished reports whether the root span has been closed.
func (r *Recorder) Finished() bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return !r.finished.IsZero()
}

// Epoch returns the recorder's root-span start time (zero on nil).
func (r *Recorder) Epoch() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.epoch
}

// Status returns the terminal status set by Finish ("" while open).
func (r *Recorder) Status() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status
}

// Spans returns the recorded spans sorted by start time (ties broken by
// name, then recording order kept stable), a copy safe to retain.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Instants returns the recorded point events sorted by time (copy).
func (r *Recorder) Instants() []Instant {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]Instant(nil), r.instants...)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].At.Before(out[j].At) })
	return out
}

// chromeEvent is one entry of the Chrome trace-event JSON array — the
// same shape internal/trace emits, so either document loads in Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	S    string         `json:"s,omitempty"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// lifecycleLane is the thread id of the service-tier span lane; engine
// worker lanes are assigned ids from engineLaneBase up, so the lifecycle
// row always sorts above the worker rows in a trace viewer.
const (
	lifecycleLane  = 1
	engineLaneBase = 2
)

// WriteChromeTrace exports the lifecycle trace — root span, service
// spans, instants and every attached engine collector's worker lanes —
// as one Chrome trace-event JSON array. Timestamps are microseconds from
// the recorder's epoch; thread-name metadata events come first, then all
// duration/instant events in non-decreasing ts order, so consumers that
// stream the array see a monotonic timeline.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	if r == nil {
		return errors.New("obs: nil recorder")
	}
	r.mu.Lock()
	name, epoch, finished, status, errText := r.name, r.epoch, r.finished, r.status, r.errText
	jobID, workload := r.jobID, r.workload
	spans := append([]Span(nil), r.spans...)
	instants := append([]Instant(nil), r.instants...)
	engines := append([]*trace.Collector(nil), r.engines...)
	r.mu.Unlock()

	us := func(t time.Time) float64 {
		d := t.Sub(epoch)
		if d < 0 {
			d = 0
		}
		return float64(d.Microseconds())
	}

	var out []chromeEvent
	rootEnd := finished
	add := func(e chromeEvent, end time.Time) {
		out = append(out, e)
		if rootEnd.IsZero() || end.After(rootEnd) {
			// An open root (job still live) extends to the latest
			// recorded event so the trace stays well-formed mid-run.
			if finished.IsZero() {
				rootEnd = end
			}
		}
	}
	for _, s := range spans {
		add(chromeEvent{
			Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: float64(s.End.Sub(s.Start).Microseconds()),
			PID: 1, TID: lifecycleLane, Args: s.Args,
		}, s.End)
	}
	for _, i := range instants {
		add(chromeEvent{
			Name: i.Name, Ph: "i", S: "t", Ts: us(i.At),
			PID: 1, TID: lifecycleLane, Args: i.Args,
		}, i.At)
	}

	// Stitch the engine lanes: each collector's relative offsets are
	// re-based through its epoch onto the recorder's absolute axis.
	lane := map[string]int{}
	var laneOrder []string
	for _, col := range engines {
		base := col.Epoch()
		for _, e := range col.Events() {
			if _, ok := lane[e.Worker]; !ok {
				lane[e.Worker] = engineLaneBase + len(lane)
				laneOrder = append(laneOrder, e.Worker)
			}
			start := base.Add(e.Start)
			add(chromeEvent{
				Name: e.Name, Ph: "X", Ts: us(start), Dur: float64(e.Dur.Microseconds()),
				PID: 1, TID: lane[e.Worker], Args: e.Args,
			}, start.Add(e.Dur))
		}
	}

	// Root span over everything recorded so far.
	rootArgs := map[string]any{"job_id": jobID, "workload": workload}
	if status != "" {
		rootArgs["status"] = status
	}
	if errText != "" {
		rootArgs["error"] = errText
	}
	if rootEnd.IsZero() {
		rootEnd = epoch
	}
	out = append(out, chromeEvent{
		Name: name, Ph: "X", Ts: 0, Dur: float64(rootEnd.Sub(epoch).Microseconds()),
		PID: 1, TID: lifecycleLane, Args: rootArgs,
	})

	sort.SliceStable(out, func(i, j int) bool { return out[i].Ts < out[j].Ts })

	meta := make([]chromeEvent, 0, 1+len(laneOrder))
	meta = append(meta, chromeEvent{
		Name: "thread_name", Ph: "M", PID: 1, TID: lifecycleLane,
		Args: map[string]any{"name": "lifecycle"},
	})
	for _, worker := range laneOrder {
		meta = append(meta, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: lane[worker],
			Args: map[string]any{"name": worker},
		})
	}
	return json.NewEncoder(w).Encode(append(meta, out...))
}
