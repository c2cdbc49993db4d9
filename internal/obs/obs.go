// Package obs is the timeline of a run: one Recorder collects the spans of
// a job's journey through the stack — HTTP receive, memo outcome, scheduler
// queue wait, grant allocation, engine phases — on its lifecycle lane, and
// hands every pipeline worker a private Track for its high-frequency spans
// (map tasks, consume rounds, steals, tuner epochs). All events share the
// recorder's clock, and one exporter writes them as a Chrome trace-event
// JSON document (load it at https://ui.perfetto.dev): the lifecycle lane
// above the worker lanes of the same run — the paper's Fig. 2 made
// empirical, with the service tier's queueing drawn on top of it.
//
// Concurrency. The lifecycle lane takes the recorder's mutex per event; the
// service tier records a handful per job. A Track is an unsynchronised
// buffer owned by one goroutine — a span costs two clock reads and one
// append — and becomes visible to readers only when its owner calls
// Publish, which hands the buffer to the recorder under that mutex. Readers
// (Events, Summary, WriteChromeTrace) see the lifecycle lane plus published
// tracks and nothing else, so a live job's trace is its lifecycle spans and
// the lanes of the workers that have finished, and a settled job's trace is
// complete.
//
// Every method is safe on a nil *Recorder and a nil *Track and allocates
// nothing there, so call sites never nil-check.
package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Event is one entry of the timeline: a completed span, or a point event
// (Dur 0) when it sits among a recorder's instants.
type Event struct {
	// Name labels the event ("build", "queue-wait", "task", "consume", ...).
	Name string
	// Track is the lane the event belongs to: "lifecycle" or a worker
	// ("mapper-3").
	Track string
	// Start is the offset from the recorder's epoch; negative for a span
	// that began before the recorder existed.
	Start time.Duration
	// Dur is the span length.
	Dur time.Duration
	// Args carries optional details (the granted CPU set, a task's split
	// count); shared with the recorder, do not mutate.
	Args map[string]any
}

// lifecycle names the recorder's own lane.
const lifecycle = "lifecycle"

// Recorder collects one run's timeline. Construct with New. All methods are
// safe for concurrent use and no-ops on a nil receiver.
type Recorder struct {
	name  string
	epoch time.Time

	mu       sync.Mutex
	finished time.Time
	status   string
	errText  string
	jobID    int
	workload string
	spans    []Event   // lifecycle lane, in recording order
	instants []Event   // lifecycle point events, in recording order
	tracks   [][]Event // published worker buffers
}

// New returns a Recorder whose epoch is now. name labels the root span the
// lifecycle lane hangs under; the service uses "job". A recorder with no
// name is a standalone run's (Config.Trace without a scheduler or service
// around it): it has no root and no lifecycle lane, only worker tracks.
func New(name string) *Recorder {
	return &Recorder{name: name, epoch: time.Now()}
}

// noopEnd is the shared end function returned by Span on a nil receiver,
// so the disabled path allocates no closure.
var noopEnd = func() {}

// Span starts a lifecycle span now and returns the function that ends it:
//
//	defer rec.Span("build", nil)()
func (r *Recorder) Span(name string, args map[string]any) func() {
	if r == nil {
		return noopEnd
	}
	start := time.Now()
	return func() { r.SpanAt(name, start, time.Now(), args) }
}

// SpanAt records an already-measured lifecycle span with absolute bounds —
// scheduler timestamps land on the recorder's clock this way. A span whose
// end precedes its start is clamped to zero length. No-op on nil.
func (r *Recorder) SpanAt(name string, start, end time.Time, args map[string]any) {
	if r == nil {
		return
	}
	if end.Before(start) {
		end = start
	}
	e := Event{Name: name, Track: lifecycle, Start: start.Sub(r.epoch), Dur: end.Sub(start), Args: args}
	r.mu.Lock()
	r.spans = append(r.spans, e)
	r.mu.Unlock()
}

// Instant records a lifecycle point event (memo hit, coalesce, tuner
// summary) now. No-op on nil.
func (r *Recorder) Instant(name string, args map[string]any) {
	if r == nil {
		return
	}
	r.InstantAt(name, time.Now(), args)
}

// InstantAt records a lifecycle point event at an explicit time. No-op on
// nil.
func (r *Recorder) InstantAt(name string, at time.Time, args map[string]any) {
	if r == nil {
		return
	}
	e := Event{Name: name, Track: lifecycle, Start: at.Sub(r.epoch), Args: args}
	r.mu.Lock()
	r.instants = append(r.instants, e)
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

// Finish closes the root span with a terminal status ("done", "canceled",
// "cached", ...). The first call wins; subsequent calls are no-ops, as is a
// call on nil.
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

// Epoch returns the recorder's time origin — the root span's start; every
// Event.Start is an offset from it (zero on nil).
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

// Track is one worker's lane: a private event buffer for the goroutine that
// asked for it, invisible to readers until Publish.
type Track struct {
	r      *Recorder
	name   string
	events []Event
}

// Track opens a worker lane. Safe to call from any goroutine; the returned
// track must be used by one goroutine only. Nil on a nil recorder.
func (r *Recorder) Track(name string) *Track {
	if r == nil {
		return nil
	}
	return &Track{r: r, name: name}
}

// Worker opens the lane of a pool's id-th worker, named "role-id"; the name
// is only built when there is a recorder to hold it.
func (r *Recorder) Worker(role string, id int) *Track {
	if r == nil {
		return nil
	}
	return r.Track(role + "-" + strconv.Itoa(id))
}

// Arg is one argument of a worker span. The engines describe every task at
// the call site, traced or not, so the description must cost nothing to
// build: an Arg is a plain value, and the map a recorded span carries is
// made behind the nil check.
type Arg struct {
	key, str string
	num      int
	isStr    bool
}

// Int is an integer span argument.
func Int(key string, v int) Arg { return Arg{key: key, num: v} }

// Str is a string span argument.
func Str(key, v string) Arg { return Arg{key: key, str: v, isStr: true} }

// Span starts a span on the track and returns the function that ends it,
// which appends the event to the private buffer — no lock, atomic or channel
// on this path. On a nil track it returns a shared no-op.
func (t *Track) Span(name string, args ...Arg) func() {
	if t == nil {
		return noopEnd
	}
	var m map[string]any
	if len(args) > 0 {
		m = make(map[string]any, len(args))
		for _, a := range args {
			if a.isStr {
				m[a.key] = a.str
			} else {
				m[a.key] = a.num
			}
		}
	}
	start := time.Since(t.r.epoch)
	return func() {
		t.events = append(t.events, Event{
			Name: name, Track: t.name,
			Start: start, Dur: time.Since(t.r.epoch) - start,
			Args: m,
		})
	}
}

// Publish hands the buffered events to the recorder, where readers can see
// them; the owning worker calls it on its way out, however it ends. The
// track is empty afterwards. No-op on nil.
func (t *Track) Publish() {
	if t == nil || len(t.events) == 0 {
		return
	}
	t.r.mu.Lock()
	t.r.tracks = append(t.r.tracks, t.events)
	t.r.mu.Unlock()
	t.events = nil
}

// withWorkers appends the published worker events to out and sorts the lot
// by start time, ties broken by track name, so the order — and the lane
// numbering the export derives from it — is deterministic whatever the
// goroutine scheduling was. The stable sort keeps one track's same-start
// events in recording order.
func (r *Recorder) withWorkers(out []Event) []Event {
	r.mu.Lock()
	for _, tr := range r.tracks {
		out = append(out, tr...)
	}
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Track < out[j].Track
	})
	return out
}

// Events returns every visible span — the lifecycle lane and the published
// tracks — sorted by start time, ties broken by track name; a copy safe to
// retain.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]Event(nil), r.spans...)
	r.mu.Unlock()
	return r.withWorkers(out)
}

// Summary renders per-track busy time as text, a quick utilization view
// without a trace viewer.
func (r *Recorder) Summary(w io.Writer) error {
	busy := map[string]time.Duration{}
	count := map[string]int{}
	var total time.Duration
	for _, e := range r.Events() {
		busy[e.Track] += e.Dur
		count[e.Track]++
		total = max(total, e.Start+e.Dur)
	}
	var tracks []string
	for name := range busy {
		tracks = append(tracks, name)
	}
	sort.Strings(tracks)
	for _, name := range tracks {
		util := 0.0
		if total > 0 {
			util = busy[name].Seconds() / total.Seconds() * 100
		}
		if _, err := fmt.Fprintf(w, "%-16s %6d spans  busy %12v  (%5.1f%%)\n",
			name, count[name], busy[name], util); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one entry of the Chrome trace-event JSON array.
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

// WriteChromeTrace exports the timeline as one Chrome trace-event JSON
// array: thread-name metadata first, then every event in non-decreasing ts
// (microseconds from the epoch), so consumers that stream the array see a
// monotonic timeline. A named recorder's lifecycle lane is thread 1, under
// a root span named after it that carries the job identity, terminal status
// and error, and the worker lanes follow from thread 2 in first-event
// order; a standalone recorder has only the worker lanes, from thread 1.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	if r == nil {
		return errors.New("obs: nil recorder")
	}
	// Thread ids in order of first appearance.
	tid := map[string]int{}
	var lanes []string
	lane := func(name string) {
		if _, ok := tid[name]; !ok {
			lanes = append(lanes, name)
			tid[name] = len(lanes)
		}
	}
	rooted := r.name != ""
	var spans, instants []Event
	r.mu.Lock()
	finished, status, errText, jobID, workload := r.finished, r.status, r.errText, r.jobID, r.workload
	if rooted {
		lane(lifecycle)
		spans = append(spans, r.spans...)
		instants = append(instants, r.instants...)
	}
	r.mu.Unlock()
	workers := r.withWorkers(nil)
	for _, e := range workers {
		lane(e.Track)
	}

	// Equal timestamps keep this order: lifecycle spans and instants as
	// recorded, then worker events, then the root.
	out := make([]chromeEvent, 0, len(spans)+len(instants)+len(workers)+1)
	var end time.Duration // where an open root ends: the latest event end
	add := func(ph, scope string, events []Event) {
		for _, e := range events {
			out = append(out, chromeEvent{
				Name: e.Name, Ph: ph, S: scope,
				Ts:  float64(max(e.Start, 0).Microseconds()),
				Dur: float64(e.Dur.Microseconds()),
				PID: 1, TID: tid[e.Track], Args: e.Args,
			})
			end = max(end, e.Start+e.Dur)
		}
	}
	add("X", "", spans)
	add("i", "t", instants)
	add("X", "", workers)
	if rooted {
		if !finished.IsZero() {
			end = finished.Sub(r.epoch)
		}
		args := map[string]any{"job_id": jobID, "workload": workload}
		if status != "" {
			args["status"] = status
		}
		if errText != "" {
			args["error"] = errText
		}
		out = append(out, chromeEvent{
			Name: r.name, Ph: "X", Dur: float64(end.Microseconds()),
			PID: 1, TID: tid[lifecycle], Args: args,
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Ts < out[j].Ts })

	doc := make([]chromeEvent, 0, len(lanes)+len(out))
	for _, name := range lanes {
		doc = append(doc, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: tid[name],
			Args: map[string]any{"name": name},
		})
	}
	return json.NewEncoder(w).Encode(append(doc, out...))
}
