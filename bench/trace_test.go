package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeOfNestedSpans(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.root(1, 0, "op", at(0), at(100))
	a := tr.child(root, 1, "a", "service", at(10), at(60))
	tr.child(a, 1, "a1", "core", at(20), at(30))
	tr.child(a, 1, "a2", "core", at(25), at(40)) // overlaps a1: counted once in a's self time
	tr.child(root, 1, "b", "sched", at(70), at(90))
	tr.child(root, 1, "late", "sched", at(95), at(130)) // clipped to the root's end
	tr.auxSpan(1, "poll", "service", at(0), at(100))    // drawn, not accounted

	self := selfTimes(tr.spans)
	ms := func(id int) int { return int(self[id] / time.Millisecond) }
	if got := ms(root); got != 100-50-20-5 {
		t.Errorf("root self = %dms, want 25", got)
	}
	if got := ms(a); got != 50-20 { // a1 ∪ a2 covers [20,40)
		t.Errorf("a self = %dms, want 30", got)
	}
	if _, ok := self[len(tr.spans)]; ok {
		t.Error("aux span has a self time")
	}

	lt := tr.table()
	// a1 and a2 overlap by 5 ms, so the tree's self times exceed the
	// root span by exactly that.
	if want := 1.05; lt.coverMax < want-1e-9 || lt.coverMax > want+1e-9 {
		t.Errorf("coverage = %g, want %g", lt.coverMax, want)
	}
	if got := lt.selfByLayer["sched"]; got != 25*time.Millisecond {
		t.Errorf("sched self = %v, want 25ms (20 + the 5 inside the root)", got)
	}
}

func TestNilTracerIsANoOp(t *testing.T) {
	var tr *tracer
	root := tr.root(1, 0, "op", time.Now(), time.Now())
	tr.child(root, 1, "c", "core", time.Now(), time.Now())
	tr.auxSpan(1, "p", "core", time.Now(), time.Now())
	tr.noteTraceOnly(time.Second)
	if lt := tr.table(); lt.ops != 0 {
		t.Errorf("nil tracer reports %d operations", lt.ops)
	}
}

func TestChromeTraceLoads(t *testing.T) {
	tr := newTracer()
	now := time.Now()
	root := tr.root(7, 1, "op", now, now.Add(time.Millisecond))
	tr.child(root, 7, "c", "core", now, now.Add(time.Millisecond/2))
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.writeChrome(path, "w"); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []chromeEvent
	if err := json.Unmarshal(b, &events); err != nil {
		t.Fatalf("trace is not a JSON array of events: %v", err)
	}
	if len(events) != 3 || events[1].Ph != "X" || events[2].TID != events[1].TID+1 {
		t.Errorf("events = %+v, want metadata, the root and its child one lane below", events)
	}
}
