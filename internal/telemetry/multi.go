package telemetry

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// Multi aggregates several live Telemetry instances — one per concurrent
// job — into a single Prometheus exposition, distinguishing them with
// caller-supplied labels. A Telemetry records exactly one run at a time,
// so a multi-job service gives every job its own instance and registers it
// here for the lifetime of the job; the shared /metrics endpoint then
// scrapes all live runs at once, each sample carrying its job's labels.
//
// Registration order is preserved in the exposition so scrapes are stable.
// All methods are safe for concurrent use.
type Multi struct {
	mu      sync.Mutex
	entries []multiEntry
	extra   func(io.Writer) error
}

type multiEntry struct {
	key    string
	labels string // rendered `k="v",...,` prefix
	t      *Telemetry
}

// NewMulti returns an empty aggregator.
func NewMulti() *Multi { return &Multi{} }

// Register adds t under key with the given extra labels (rendered in
// sorted key order). Label names must be valid Prometheus label names and
// must not collide with the exporter's own (engine, role, worker, class);
// the caller guarantees both. Registering an existing key replaces it.
func (m *Multi) Register(key string, labels map[string]string, t *Telemetry) {
	names := make([]string, 0, len(labels))
	for k := range labels {
		names = append(names, k)
	}
	sort.Strings(names)
	rendered := ""
	for _, k := range names {
		rendered += fmt.Sprintf("%s=%q,", k, labels[k])
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.entries {
		if m.entries[i].key == key {
			m.entries[i] = multiEntry{key: key, labels: rendered, t: t}
			return
		}
	}
	m.entries = append(m.entries, multiEntry{key: key, labels: rendered, t: t})
}

// Unregister removes the entry under key; unknown keys are a no-op.
func (m *Multi) Unregister(key string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.entries {
		if m.entries[i].key == key {
			m.entries = append(m.entries[:i], m.entries[i+1:]...)
			return
		}
	}
}

// SetExtra registers an auxiliary exposition writer appended after the
// per-run metric families — the job service uses it for service-level
// families (memo cache counters, registry retention gauges). The writer
// must emit complete, well-formed family blocks of its own; it runs on
// every scrape, even when no runs are registered, so service-level
// series survive job deletion. A nil fn clears it.
func (m *Multi) SetExtra(fn func(io.Writer) error) {
	m.mu.Lock()
	m.extra = fn
	m.mu.Unlock()
}

// Len returns the number of registered instances.
func (m *Multi) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// WritePrometheus emits one well-formed exposition covering every
// registered run: each metric family appears once, with one sample per
// worker per run, labelled by the run's registration labels.
func (m *Multi) WritePrometheus(w io.Writer) error {
	m.mu.Lock()
	entries := append([]multiEntry(nil), m.entries...)
	extra := m.extra
	m.mu.Unlock()
	snaps := make([]promSnap, len(entries))
	for i, e := range entries {
		snaps[i] = e.t.snap(e.labels)
	}
	if err := writePromSnaps(w, snaps); err != nil {
		return err
	}
	// The extra writer runs outside m.mu so it may call back into the
	// aggregator (Len) without deadlocking.
	if extra != nil {
		return extra(w)
	}
	return nil
}
