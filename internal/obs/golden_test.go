package obs

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// record appends an already-measured span to tr's private buffer, as
// Track.Span's end function does with the clock's readings.
func record(tr *Track, name string, start, dur time.Duration, args map[string]any) {
	tr.events = append(tr.events, Event{Name: name, Track: tr.name, Start: start, Dur: dur, Args: args})
}

// checkGolden compares got with testdata/name byte for byte.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("chrome trace drifted from %s\ngot:  %s\nwant: %s", golden, got, want)
	}
}

// TestChromeTraceGoldenJob pins the daemon-shaped document — what
// GET /jobs/{id}/trace serves — for a recorder fed fixed timestamps, once
// with the root still open (a live job) and once finished with an error.
// The event set walks every ordering rule of the export: lifecycle spans
// keep recording order within one microsecond, spans precede instants
// precede worker events precede the root on equal ts, worker lanes are
// numbered from 2 in first-event order with equal starts broken by lane
// name, one lane's equal-start events keep recording order, a span that
// starts before the epoch clamps to ts 0, one that ends before it starts
// clamps to zero length, an open root extends to the latest event end, and
// the first Finish wins.
func TestChromeTraceGoldenJob(t *testing.T) {
	const us, ms = time.Microsecond, time.Millisecond
	for _, tc := range []struct {
		file     string
		finished bool
	}{
		{"job_open.golden.json", false},
		{"job_done.golden.json", true},
	} {
		r := New("job")
		at := func(d time.Duration) time.Time { return r.epoch.Add(d) }
		r.SetJob(7, "WC")

		r.SpanAt("execute", at(3*ms), at(8*ms), map[string]any{"cpus": []int{0, 1}})
		r.SpanAt("receive", at(0), at(150*us), nil)
		r.SpanAt("queue-wait", at(-200*us), at(1*ms), nil)
		r.SpanAt("build", at(2*ms), at(1*ms), nil)
		r.SpanAt("phase:init", at(3*ms+700), at(3*ms+900*us), nil)
		r.SpanAt("grant-alloc", at(3*ms+200), at(3*ms+100*us), map[string]any{"cpus": []int{0, 1}, "groups": []int{0}})
		r.InstantAt("steal-summary", at(8*ms), map[string]any{"local": 3, "remote": 1})
		r.InstantAt("memo-miss", at(150*us), nil)
		r.InstantAt("admitted", at(0), nil)

		m0 := r.Track("mapper-0")
		c0 := r.Track("combiner-0")
		tn := r.Track("tuner")
		record(m0, "task", 3*ms, 2*ms, map[string]any{"splits": 4})
		record(m0, "steal", 3*ms, 4*ms, map[string]any{"tasks": 2, "class": "socket"})
		record(m0, "task", 5*ms+500*us, 1*ms, map[string]any{"splits": 1})
		record(c0, "consume", 3*ms, 1*ms, nil)
		record(c0, "consume", 3*ms+100, 500*us, nil)
		record(c0, "consume", 7*ms, 2*ms+500*us, nil)
		record(tn, "epoch", 0, 0, map[string]any{"action": "hold", "combiners": 1, "batch": 64})
		m0.Publish()
		c0.Publish()
		tn.Publish()

		if tc.finished {
			r.SetError(errors.New("context canceled"))
			r.Finish("canceled")
			r.Finish("done")
			r.finished = at(9 * ms)
		}
		var buf bytes.Buffer
		if err := r.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, tc.file, buf.Bytes())
	}
}

// TestChromeTraceGoldenStandalone pins the document of a recorder with no
// root name — what Config.Trace, ramrsynth and ramrbench -trace-out write:
// worker lanes numbered from 1, no lifecycle lane, no root. The same start
// on two lanes exercises the tie-break by lane name; the args map exercises
// deterministic key marshaling.
func TestChromeTraceGoldenStandalone(t *testing.T) {
	const ms = time.Millisecond
	r := New("")
	m0 := r.Track("mapper-0")
	c0 := r.Track("combiner-0")
	record(c0, "consume", 2*ms, ms, nil)
	record(m0, "task", 2*ms, 3*ms, map[string]any{"splits": 4, "idx": 1})
	record(m0, "task", 7*ms, ms, nil)
	m0.Publish()
	c0.Publish()

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "standalone.golden.json", buf.Bytes())
}
