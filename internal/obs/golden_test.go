package obs

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ramr/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

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
		col := trace.New()
		r := New("job")
		r.epoch = col.Epoch()
		at := func(d time.Duration) time.Time { return r.epoch.Add(d) }
		r.SetJob(7, "WC")
		r.AttachEngine(col)

		r.SpanAt("execute", at(3*ms), at(8*ms), map[string]any{"cpus": []int{0, 1}})
		r.SpanAt("receive", at(0), at(150*us), nil)
		r.SpanAt("queue-wait", at(-200*us), at(1*ms), nil)
		r.SpanAt("build", at(2*ms), at(1*ms), nil)
		r.SpanAt("phase:init", at(3*ms+700), at(3*ms+900*us), nil)
		r.SpanAt("grant-alloc", at(3*ms+200), at(3*ms+100*us), map[string]any{"cpus": []int{0, 1}, "groups": []int{0}})
		r.InstantAt("steal-summary", at(8*ms), map[string]any{"local": 3, "remote": 1})
		r.InstantAt("memo-miss", at(150*us), nil)
		r.InstantAt("admitted", at(0), nil)

		m0 := col.Shard("mapper-0")
		c0 := col.Shard("combiner-0")
		tn := col.Shard("tuner")
		m0.Record("task", 3*ms, 2*ms, map[string]any{"splits": 4})
		m0.Record("steal", 3*ms, 4*ms, map[string]any{"tasks": 2, "class": "socket"})
		m0.Record("task", 5*ms+500*us, 1*ms, map[string]any{"splits": 1})
		c0.Record("consume", 3*ms, 1*ms, nil)
		c0.Record("consume", 3*ms+100, 500*us, nil)
		c0.Record("consume", 7*ms, 2*ms+500*us, nil)
		tn.Record("epoch", 0, 0, map[string]any{"action": "hold", "combiners": 1, "batch": 64})

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
