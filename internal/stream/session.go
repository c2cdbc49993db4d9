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
	// Digest folds one output pair into a window's order-independent
	// digest — the workload's batch fold, so a window holding a batch
	// job's whole input prints that job's digest. Required.
	Digest func(K, R) uint64
}

// sampleLimit is how many of a sealed window's first pairs its summary
// carries, stringified by fmt.Sprint.
const sampleLimit = 10

// Session is a type-erased resident pipeline: the service tier drives
// Start/Append/Close/Cancel and reads windows without the job's type
// parameters. Build one with Erase.
type Session struct {
	lifecycle
	append    func(RawChunk) (int64, error)
	windows   func() []WindowMeta
	window    func(int64) (WindowMeta, bool)
	setOnSeal func(func(WindowMeta))
	spec      mr.StreamSpec
}

// lifecycle is what a Session forwards to its Pipeline unchanged: the
// Pipeline methods of the same names, which carry no type parameter.
type lifecycle interface {
	Start() error
	Close(ctx context.Context) error
	Cancel()
	CancelWait()
	Done() <-chan struct{}
	Err() error
	Stats() Stats
}

// Erase wraps a typed pipeline in a Session. Call before Start.
func Erase[S any, K comparable, V, R any](p *Pipeline[S, K, V, R], opts EraseOpts[S, K, R]) (*Session, error) {
	if opts.Decode == nil || opts.Digest == nil {
		return nil, fmt.Errorf("stream: EraseOpts.Decode and EraseOpts.Digest are required")
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
		var d uint64
		for _, pr := range w.Pairs {
			d += opts.Digest(pr.Key, pr.Value)
		}
		m.Digest = fmt.Sprintf("%016x", d)
		for _, pr := range w.Pairs[:min(len(w.Pairs), sampleLimit)] {
			m.Sample = append(m.Sample, SamplePair{Key: fmt.Sprint(pr.Key), Value: fmt.Sprint(pr.Value)})
		}
		return m
	}
	return &Session{
		lifecycle: p,
		append: func(rc RawChunk) (int64, error) {
			splits, err := opts.Decode(rc)
			if err != nil {
				return 0, err
			}
			return p.Append(Chunk[S]{Ts: rc.Ts, Splits: splits})
		},
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
		setOnSeal: func(fn func(WindowMeta)) {
			p.OnSeal = func(w *Window[K, R]) { fn(meta(w)) }
		},
		spec: p.win,
	}, nil
}

// Append admits one raw chunk and returns its assigned tick.
func (s *Session) Append(rc RawChunk) (int64, error) { return s.append(rc) }

// Windows returns the sealed windows' summaries in seal order.
func (s *Session) Windows() []WindowMeta { return s.windows() }

// Window returns sealed window n's summary, if sealed.
func (s *Session) Window(n int64) (WindowMeta, bool) { return s.window(n) }

// SetOnSeal installs the per-window callback; call before Start.
func (s *Session) SetOnSeal(fn func(WindowMeta)) { s.setOnSeal(fn) }

// Spec returns the resolved window spec the session runs under.
func (s *Session) Spec() mr.StreamSpec { return s.spec }
