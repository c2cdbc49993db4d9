package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"regexp"
	"strings"
	"testing"
)

// newRun builds a live Telemetry with one worker in state st.
func newRun(t *testing.T, workerEmitted int, st State) *Telemetry {
	t.Helper()
	tel := New()
	w := begin(tel, "ramr").Register("mapper", 0)
	w.AddTask(uint64(workerEmitted))
	w.SetState(st)
	return tel
}

func TestMultiAggregatesWithLabels(t *testing.T) {
	m := NewMulti()
	m.Register("1", map[string]string{"job": "1", "app": "WC"}, newRun(t, 10, 3))
	m.Register("2", map[string]string{"job": "2", "app": "KM"}, newRun(t, 20, 2))
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}

	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if n := checkPromText(t, bytes.NewReader(buf.Bytes())); n == 0 {
		t.Fatal("no samples in aggregate output")
	}
	// Per-job labels (sorted key order: app before job) prefix the
	// exporter's own labels.
	for _, want := range []string{
		`ramr_worker_pairs_emitted_total{app="WC",job="1",engine="ramr",role="mapper",worker="0"} 10`,
		`ramr_worker_pairs_emitted_total{app="KM",job="2",engine="ramr",role="mapper",worker="0"} 20`,
		`ramr_worker_state{app="WC",job="1",engine="ramr",role="mapper",worker="0"} 3`,
		`ramr_worker_state{app="KM",job="2",engine="ramr",role="mapper",worker="0"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("aggregate output missing %q:\n%s", want, text)
		}
	}
	// One exposition, not a concatenation: each family's TYPE header
	// appears exactly once even with two registered runs.
	for _, family := range []string{"ramr_worker_pairs_emitted_total", "ramr_worker_state"} {
		if n := strings.Count(text, "# TYPE "+family+" "); n != 1 {
			t.Fatalf("family %s has %d TYPE headers, want 1:\n%s", family, n, text)
		}
	}
}

func TestMultiRegisterReplacesAndUnregisters(t *testing.T) {
	m := NewMulti()
	m.Register("1", map[string]string{"job": "1"}, newRun(t, 1, 1))
	m.Register("1", map[string]string{"job": "1b"}, newRun(t, 2, 1))
	if m.Len() != 1 {
		t.Fatalf("Len after replace = %d, want 1", m.Len())
	}
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `job="1"`) {
		t.Fatal("replaced registration still present")
	}
	m.Unregister("nope") // unknown key is a no-op
	m.Unregister("1")
	if m.Len() != 0 {
		t.Fatalf("Len after unregister = %d, want 0", m.Len())
	}
	buf.Reset()
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "ramr_worker") {
		t.Fatal("empty aggregator still emits samples")
	}
}

// TestMultiEmptyLabels checks that a run registered with no extra labels
// renders exactly like the single-run exporter.
func TestMultiEmptyLabels(t *testing.T) {
	tel := newRun(t, 7, 2)
	m := NewMulti()
	m.Register("only", nil, tel)

	var single, multi bytes.Buffer
	if err := tel.WritePrometheus(&single); err != nil {
		t.Fatal(err)
	}
	if err := m.WritePrometheus(&multi); err != nil {
		t.Fatal(err)
	}
	// ramr_run_duration_seconds is wall-clock-dependent, so two sequential
	// scrapes can never agree on its value; blank it before comparing.
	clock := regexp.MustCompile(`(?m)^ramr_run_duration_seconds .*$`)
	s := clock.ReplaceAllString(single.String(), "ramr_run_duration_seconds X")
	mu := clock.ReplaceAllString(multi.String(), "ramr_run_duration_seconds X")
	if s != mu {
		t.Fatalf("label-free Multi output differs from single-run output:\n--- single\n%s\n--- multi\n%s", s, mu)
	}
}

// TestMultiExtraWriter: the auxiliary exposition writer is appended after
// the per-run families and keeps emitting when no runs are registered —
// service-level series must survive job deletion.
func TestMultiExtraWriter(t *testing.T) {
	m := NewMulti()
	m.SetExtra(func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "# HELP ramr_test_extra x\n# TYPE ramr_test_extra gauge\nramr_test_extra %d\n", m.Len())
		return err
	})

	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ramr_test_extra 0") {
		t.Fatalf("empty aggregator lost the extra families:\n%s", buf.String())
	}

	m.Register("1", map[string]string{"job": "1"}, newRun(t, 3, 1))
	buf.Reset()
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "ramr_test_extra 1") {
		t.Fatalf("extra families missing with a registered run:\n%s", out)
	}
	if strings.Index(out, "ramr_worker_pairs_emitted_total") > strings.Index(out, "ramr_test_extra") {
		t.Fatal("extra families emitted before the per-run families")
	}

	m.SetExtra(nil)
	buf.Reset()
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "ramr_test_extra") {
		t.Fatal("cleared extra writer still emits")
	}
}
