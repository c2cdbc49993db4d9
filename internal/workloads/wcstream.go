package workloads

import (
	"fmt"

	"ramr/internal/container"
	"ramr/internal/mr"
	"ramr/internal/stream"
)

// NewWordCountStreamSession builds a resident streaming session over the
// Word Count algebra: the same Map/Combine/Reduce as WordCountSpec, but
// input arrives as text chunks over time. Each RawChunk carries its text
// in Lines, one line per split, so a producer streams real data in (the
// SYNTH session, by contrast, only asks for generated elements). A
// window's result is the word count over every line admitted to it.
func NewWordCountStreamSession(kind container.Kind, cfg mr.Config) (*stream.Session, error) {
	spec := WordCountSpec(nil, kind)
	pipe, err := stream.New(spec, cfg)
	if err != nil {
		return nil, err
	}
	return stream.Erase(pipe, stream.EraseOpts[string, string, int]{
		Decode: func(rc stream.RawChunk) ([]string, error) {
			if rc.Elements > 0 {
				return nil, fmt.Errorf("workloads: WC chunks carry lines, not elements (got elements=%d)", rc.Elements)
			}
			if len(rc.Lines) == 0 {
				return nil, nil
			}
			return rc.Lines, nil
		},
		Digest: wcPairDigest,
	})
}
