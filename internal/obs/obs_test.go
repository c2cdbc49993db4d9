package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilZeroAlloc pins the disabled-path contract: every method of a nil
// *Recorder, a nil *Track and a nil *Ring must allocate nothing, so engine
// and service hot paths call unconditionally. The track calls are the
// engines' own shapes — the per-task span with its split count, the steal
// span with a count and a class, the bare consume span — whose arguments are
// built at the call site whether or not anyone records them.
func TestNilZeroAlloc(t *testing.T) {
	var r *Recorder
	var ring *Ring
	lo, hi, class := 3, 7, "socket"
	allocs := testing.AllocsPerRun(1000, func() {
		r.Span("x", nil)()
		r.SpanAt("x", time.Time{}, time.Time{}, nil)
		r.Instant("x", nil)
		r.InstantAt("x", time.Time{}, nil)
		r.SetJob(1, "WC")
		r.SetError(nil)
		r.Finish("done")
		_ = r.Status()
		_ = r.Epoch()
		ring.Append("x", 1, nil)

		for _, track := range []*Track{r.Worker("mapper", hi), r.Track("tuner")} {
			track.Span("task", Int("splits", hi-lo))()
			track.Span("steal", Int("tasks", hi-lo), Str("class", class))()
			track.Span("consume")()
			track.Span("epoch", Str("action", class), Int("combiners", lo), Int("batch", hi))()
			track.Publish()
		}
	})
	if allocs != 0 {
		t.Fatalf("nil recorder/track allocated %v times per run, want 0", allocs)
	}
}

func TestSpanRecordsDuration(t *testing.T) {
	r := New("")
	tr := r.Track("w0")
	end := tr.Span("work", Int("n", 3), Str("class", "local"))
	time.Sleep(2 * time.Millisecond)
	end()
	tr.Publish()
	events := r.Events()
	if len(events) != 1 {
		t.Fatalf("%d events", len(events))
	}
	e := events[0]
	if e.Name != "work" || e.Track != "w0" {
		t.Fatalf("%+v", e)
	}
	if e.Dur < time.Millisecond {
		t.Fatalf("duration %v too short", e.Dur)
	}
	if e.Args["n"] != 3 || e.Args["class"] != "local" {
		t.Fatalf("args lost: %+v", e.Args)
	}
	if got := r.Worker("mapper", 12).name; got != "mapper-12" {
		t.Fatalf("Worker lane named %q, want mapper-12", got)
	}
}

// TestUnpublishedTrackInvisible is the publication rule: a track's events
// reach readers when its owner publishes them and not before, so a reader
// never touches a buffer a worker is still appending to (the race detector
// checks the "never"), and nothing recorded before Publish is lost.
func TestUnpublishedTrackInvisible(t *testing.T) {
	r := New("job")
	stop, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		tr := r.Worker("mapper", 0)
		defer tr.Publish()
		for i := 0; ; i++ {
			tr.Span("task", Int("splits", i))()
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	for i := 0; i < 50; i++ {
		if n := len(r.Events()); n != 0 {
			t.Fatalf("%d events visible before the worker published", n)
		}
		if err := r.WriteChromeTrace(&bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-exited
	events := r.Events()
	if len(events) == 0 {
		t.Fatal("published track lost its events")
	}
	for i, e := range events {
		if e.Args["splits"] != i {
			t.Fatalf("event %d carries splits=%v: events lost or reordered", i, e.Args["splits"])
		}
	}
}

func TestEventsTieBreakByTrack(t *testing.T) {
	r := New("")
	// Publish in reverse name order with identical start times: the
	// tie-break must order by track name, not publication or scheduling
	// order.
	b := r.Track("worker-b")
	a := r.Track("worker-a")
	record(b, "opB", 5*time.Millisecond, time.Millisecond, nil)
	record(a, "opA", 5*time.Millisecond, time.Millisecond, nil)
	record(a, "first", time.Millisecond, time.Millisecond, nil)
	b.Publish()
	a.Publish()
	events := r.Events()
	if len(events) != 3 {
		t.Fatalf("%d events", len(events))
	}
	if events[0].Name != "first" || events[1].Name != "opA" || events[2].Name != "opB" {
		t.Fatalf("order: %+v", events)
	}
}

// TestEventsSorted: Events merges the lifecycle lane and the published
// tracks into one start-ordered list, args intact.
func TestEventsSorted(t *testing.T) {
	r := New("job")
	base := r.Epoch()
	r.SpanAt("late", base.Add(30*time.Millisecond), base.Add(40*time.Millisecond), nil)
	r.SpanAt("early", base, base.Add(10*time.Millisecond), map[string]any{"k": 1})
	tr := r.Track("a")
	record(tr, "mid", 10*time.Millisecond, 20*time.Millisecond, nil)
	tr.Publish()
	got := r.Events()
	want := []string{"early", "mid", "late"}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i, name := range want {
		if got[i].Name != name {
			t.Fatalf("event %d = %q, want %q", i, got[i].Name, name)
		}
	}
	if got[0].Args["k"] != 1 || got[0].Track != "lifecycle" || got[1].Track != "a" {
		t.Fatalf("args or tracks lost: %+v", got)
	}
}

func TestRecorderFinishFirstWins(t *testing.T) {
	r := New("job")
	if got := r.Status(); got != "" {
		t.Fatalf("status = %q before Finish", got)
	}
	r.Finish("done")
	r.Finish("canceled")
	if got := r.Status(); got != "done" {
		t.Fatalf("status = %q, want done (first Finish wins)", got)
	}
}

// decodeTrace parses a Chrome-trace export and returns the event maps.
func decodeTrace(t *testing.T, buf []byte) []map[string]any {
	t.Helper()
	var events []map[string]any
	if err := json.Unmarshal(buf, &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v\n%s", err, buf)
	}
	return events
}

// TestWriteChromeTrace checks the export contract the CI smoke also
// validates, on live clocks: metadata first, then a monotonic timeline
// containing the root span, lifecycle spans and worker lanes.
func TestWriteChromeTrace(t *testing.T) {
	r := New("job")
	r.SetJob(7, "WC")
	end := r.Span("build", nil)
	time.Sleep(time.Millisecond)
	end()

	tr := r.Worker("mapper", 0)
	done := tr.Span("task", Int("task", 0))
	time.Sleep(time.Millisecond)
	done()
	tr.Publish()
	r.Instant("memo-miss", nil)
	r.Finish("done")

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	events := decodeTrace(t, buf.Bytes())

	lanes := map[string]bool{}
	var names []string
	lastTs := -1.0
	metaDone := false
	for _, e := range events {
		ph := e["ph"].(string)
		if ph == "M" {
			if metaDone {
				t.Fatal("metadata event after timeline events")
			}
			lanes[e["args"].(map[string]any)["name"].(string)] = true
			continue
		}
		metaDone = true
		ts := e["ts"].(float64)
		if ts < lastTs {
			t.Fatalf("timeline not monotonic: ts %v after %v", ts, lastTs)
		}
		lastTs = ts
		names = append(names, e["name"].(string))
	}
	for _, lane := range []string{"lifecycle", "mapper-0"} {
		if !lanes[lane] {
			t.Fatalf("missing %s thread_name lane; lanes %v", lane, lanes)
		}
	}
	want := map[string]bool{"job": false, "build": false, "task": false, "memo-miss": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Fatalf("event %q missing from export; got %v", n, names)
		}
	}
	// Root span carries the job identity and terminal status.
	for _, e := range events {
		if e["name"] == "job" && e["ph"] == "X" {
			args := e["args"].(map[string]any)
			if args["job_id"].(float64) != 7 || args["workload"] != "WC" || args["status"] != "done" {
				t.Fatalf("root span args = %v", args)
			}
		}
	}

	// An empty standalone recorder still writes a JSON array.
	buf.Reset()
	if err := New("").WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if got := decodeTrace(t, buf.Bytes()); got == nil || len(got) != 0 {
		t.Fatalf("empty standalone trace = %s, want []", buf.Bytes())
	}
}

// TestRecorderConcurrentUse: the lifecycle lane from many goroutines, and
// many workers each on a private track of the same name.
func TestRecorderConcurrentUse(t *testing.T) {
	r := New("job")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := r.Track("worker")
			defer tr.Publish()
			for j := 0; j < 100; j++ {
				r.Span("s", nil)()
				r.Instant("i", nil)
				tr.Span("op")()
			}
		}()
	}
	wg.Wait()
	if got := len(r.Events()); got != 1600 {
		t.Fatalf("got %d spans, want 800 lifecycle + 800 worker", got)
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if got := len(decodeTrace(t, buf.Bytes())); got != 2+800+800+800+1 {
		t.Fatalf("export has %d events, want 2 lanes + 2400 events + root", got)
	}
}

func TestSummary(t *testing.T) {
	r := New("")
	m := r.Track("mapper-0")
	record(m, "task", 0, 10*time.Millisecond, nil)
	record(m, "task", 10*time.Millisecond, 10*time.Millisecond, nil)
	idle := r.Track("combiner-0")
	record(idle, "consume", 0, 5*time.Millisecond, nil)
	m.Publish()
	idle.Publish()
	var buf bytes.Buffer
	if err := r.Summary(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "mapper-0") || !strings.Contains(out, "2 spans") {
		t.Fatalf("summary: %s", out)
	}
	// mapper-0 is busy the whole 20ms window, combiner-0 a quarter of it.
	if !strings.Contains(out, "(100.0%)") {
		t.Fatalf("mapper utilization missing: %s", out)
	}
	if !strings.Contains(out, "( 25.0%)") {
		t.Fatalf("combiner utilization missing: %s", out)
	}
}

func TestRingWrapsAndCounts(t *testing.T) {
	ring := NewRing(4)
	for i := 0; i < 10; i++ {
		ring.Append("k", i, nil)
	}
	events, total := ring.Snapshot()
	if total != 10 {
		t.Fatalf("total = %d, want 10", total)
	}
	if len(events) != 4 {
		t.Fatalf("retained %d events, want 4", len(events))
	}
	for i, e := range events {
		if want := uint64(6 + i); e.Seq != want {
			t.Fatalf("event %d seq = %d, want %d (oldest-first)", i, e.Seq, want)
		}
		if e.Job != 6+i {
			t.Fatalf("event %d job = %d, want %d", i, e.Job, 6+i)
		}
	}
}

func TestRingPartialAndDisabled(t *testing.T) {
	ring := NewRing(8)
	ring.Append("a", 1, map[string]any{"x": 1})
	ring.Append("b", 2, nil)
	events, total := ring.Snapshot()
	if total != 2 || len(events) != 2 || events[0].Kind != "a" || events[1].Kind != "b" {
		t.Fatalf("partial snapshot wrong: total=%d events=%v", total, events)
	}
	if ring.Cap() != 8 {
		t.Fatalf("Cap = %d, want 8", ring.Cap())
	}
	disabled := NewRing(0)
	if disabled != nil {
		t.Fatal("NewRing(0) should return nil (disabled)")
	}
	disabled.Append("x", 1, nil)
	if ev, n := disabled.Snapshot(); ev != nil || n != 0 {
		t.Fatalf("disabled ring snapshot = %v, %d", ev, n)
	}
}
