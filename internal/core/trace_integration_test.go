package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"ramr/internal/obs"
	"ramr/internal/telemetry"
)

// TestEngineTracing runs a traced job and validates the recorded timeline:
// mapper task spans and combiner consume spans overlap in time — the
// paper's Fig. 2 pipeline made observable.
func TestEngineTracing(t *testing.T) {
	spec := countSpec(64, 100, 13)
	cfg := parked(testConfig()) // every pair crosses a ring: the overlap below is the rings'
	collector := obs.New("")
	cfg.Trace = collector
	cfg.Telemetry = telemetry.New()
	res, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every worker published its lane on the way out: the returned run's
	// timeline has one task span per task the telemetry counted.
	events := collector.Events()
	var tasks, consumes int
	for _, e := range events {
		switch e.Name {
		case "task":
			tasks++
		case "consume":
			consumes++
		}
	}
	if tasks == 0 || consumes == 0 || uint64(tasks) != res.Telemetry.Totals.Tasks {
		t.Fatalf("missing lanes: %d task spans (telemetry counted %d tasks), %d consume spans",
			tasks, res.Telemetry.Totals.Tasks, consumes)
	}
	// The decoupled pipeline must actually overlap: at least one consume
	// span starts before the last task span ends.
	var lastTaskEnd, firstConsume int64
	firstConsume = 1 << 62
	for _, e := range events {
		switch e.Name {
		case "task":
			if end := int64(e.Start + e.Dur); end > lastTaskEnd {
				lastTaskEnd = end
			}
		case "consume":
			if s := int64(e.Start); s < firstConsume {
				firstConsume = s
			}
		}
	}
	if firstConsume >= lastTaskEnd {
		t.Fatal("no map/combine overlap recorded — pipeline not pipelining")
	}
	// And the export is valid Chrome-trace JSON.
	var buf bytes.Buffer
	if err := collector.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	if len(parsed) < tasks+consumes {
		t.Fatalf("chrome trace lost events: %d < %d", len(parsed), tasks+consumes)
	}
}
