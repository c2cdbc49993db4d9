package stream

import (
	"context"
	"fmt"
	"time"

	"ramr/internal/mr"
)

// RawChunk is the workload-neutral chunk payload the service tier
// accepts over HTTP: a workload adapter's Decode turns it into typed
// splits. Exactly one of Elements/Lines is meaningful per workload
// (SYNTH consumes Elements, text workloads consume Lines).
type RawChunk struct {
	// Ts is the chunk's event-time tick; negative means auto-assign.
	Ts int64
	// Elements asks a synthetic workload for this many generated
	// elements.
	Elements int
	// Lines carries literal input records for text workloads.
	Lines []string
}

// SamplePair is one stringified result pair for window previews.
type SamplePair struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// WindowMeta is a sealed window's type-erased summary: everything the
// service tier serves without knowing the job's key/value types.
type WindowMeta struct {
	Index    int64     `json:"index"`
	Start    int64     `json:"start"`
	End      int64     `json:"end"`
	Pairs    int       `json:"pairs"`
	Elements uint64    `json:"elements"`
	Splits   int64     `json:"splits"`
	Chunks   int64     `json:"chunks"`
	OpenedAt time.Time `json:"opened_at"`
	SealedAt time.Time `json:"sealed_at"`
	// Digest fingerprints the full sorted pair set (workload-defined
	// fold), so window results can be compared without shipping them.
	Digest string `json:"digest,omitempty"`
	// Sample holds the first pairs of the sorted result, stringified.
	Sample []SamplePair `json:"sample,omitempty"`
}

// EraseOpts carries the typed→erased adapters for one workload.
type EraseOpts[S any, K comparable, R any] struct {
	// Decode turns a raw chunk into typed splits. Required.
	Decode func(RawChunk) ([]S, error)
	// Digest fingerprints a sealed window's sorted pairs. Optional.
	Digest func([]mr.Pair[K, R]) string
	// Format stringifies one pair for the window sample. Optional;
	// fmt.Sprint is the fallback.
	Format func(mr.Pair[K, R]) (key, value string)
	// SampleLimit bounds the stringified sample (default 10, 0 keeps
	// the default, negative disables sampling).
	SampleLimit int
}

// Session is a type-erased resident pipeline: the service tier drives
// Start/Append/Close/Cancel and reads windows without the job's type
// parameters. Build one with Erase.
type Session struct {
	start      func() error
	append     func(RawChunk) (int64, error)
	close      func(context.Context) error
	cancel     func()
	cancelWait func()
	done       func() <-chan struct{}
	err        func() error
	stats      func() Stats
	windows    func() []WindowMeta
	window     func(int64) (WindowMeta, bool)
	helpStats  func() mr.HelpStats
	setOnSeal  func(func(WindowMeta))
	spec       mr.StreamSpec
}

// Erase wraps a typed pipeline in a Session. Call before Start.
func Erase[S any, K comparable, V, R any](p *Pipeline[S, K, V, R], opts EraseOpts[S, K, R]) (*Session, error) {
	if opts.Decode == nil {
		return nil, fmt.Errorf("stream: EraseOpts.Decode is required")
	}
	limit := opts.SampleLimit
	if limit == 0 {
		limit = 10
	}
	meta := func(w *Window[K, R]) WindowMeta {
		m := WindowMeta{
			Index:    w.Index,
			Start:    w.Start,
			End:      w.End,
			Pairs:    len(w.Pairs),
			Elements: w.Elements,
			Splits:   w.Splits,
			Chunks:   w.Chunks,
			OpenedAt: w.OpenedAt,
			SealedAt: w.SealedAt,
		}
		if opts.Digest != nil {
			m.Digest = opts.Digest(w.Pairs)
		}
		if limit > 0 {
			n := len(w.Pairs)
			if n > limit {
				n = limit
			}
			for _, pr := range w.Pairs[:n] {
				var k, v string
				if opts.Format != nil {
					k, v = opts.Format(pr)
				} else {
					k, v = fmt.Sprint(pr.Key), fmt.Sprint(pr.Value)
				}
				m.Sample = append(m.Sample, SamplePair{Key: k, Value: v})
			}
		}
		return m
	}
	return &Session{
		start: p.Start,
		append: func(rc RawChunk) (int64, error) {
			splits, err := opts.Decode(rc)
			if err != nil {
				return 0, err
			}
			return p.Append(Chunk[S]{Ts: rc.Ts, Splits: splits})
		},
		close:      p.Close,
		cancel:     p.Cancel,
		cancelWait: p.CancelWait,
		done:       p.Done,
		err:        p.Err,
		stats:      p.Stats,
		windows: func() []WindowMeta {
			ws := p.Windows()
			out := make([]WindowMeta, len(ws))
			for i, w := range ws {
				out[i] = meta(w)
			}
			return out
		},
		window: func(n int64) (WindowMeta, bool) {
			w, ok := p.Window(n)
			if !ok {
				return WindowMeta{}, false
			}
			return meta(w), true
		},
		helpStats: p.HelpStats,
		setOnSeal: func(fn func(WindowMeta)) {
			p.OnSeal = func(w *Window[K, R]) { fn(meta(w)) }
		},
		spec: p.win,
	}, nil
}

// Start spawns the resident workers.
func (s *Session) Start() error { return s.start() }

// Append admits one raw chunk and returns its assigned tick.
func (s *Session) Append(rc RawChunk) (int64, error) { return s.append(rc) }

// Close seals the session and flushes the final windows.
func (s *Session) Close(ctx context.Context) error { return s.close(ctx) }

// Cancel aborts the session without draining.
func (s *Session) Cancel() { s.cancel() }

// CancelWait aborts and waits for every worker to exit.
func (s *Session) CancelWait() { s.cancelWait() }

// Done is closed once every session goroutine has exited.
func (s *Session) Done() <-chan struct{} { return s.done() }

// Err returns the session's first error.
func (s *Session) Err() error { return s.err() }

// Stats snapshots the session's live counters.
func (s *Session) Stats() Stats { return s.stats() }

// Windows returns the sealed windows' summaries in seal order.
func (s *Session) Windows() []WindowMeta { return s.windows() }

// Window returns sealed window n's summary, if sealed.
func (s *Session) Window(n int64) (WindowMeta, bool) { return s.window(n) }

// HelpStats returns what the session's fused workers folded in place, and
// the splits its combine workers ran.
func (s *Session) HelpStats() mr.HelpStats { return s.helpStats() }

// SetOnSeal installs the per-window callback; call before Start.
func (s *Session) SetOnSeal(fn func(WindowMeta)) { s.setOnSeal(fn) }

// Spec returns the resolved window spec the session runs under.
func (s *Session) Spec() mr.StreamSpec { return s.spec }
