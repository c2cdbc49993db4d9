package synth

import (
	"fmt"
	"sync/atomic"

	"ramr/internal/mr"
	"ramr/internal/stream"
	"ramr/internal/workloads"
)

// NewStreamSession builds a resident streaming session over the
// synthetic kernels: the same Map/Combine/Reduce algebra as NewJob, but
// input elements arrive as chunks over time instead of as a fixed split
// list. A chunk's RawChunk.Elements asks for that many generated
// elements; element indices continue monotonically across chunks, so a
// stream of chunks totalling N elements emits exactly the pairs a batch
// run over N elements would (per-window digests differ from the batch
// digest only by the window partitioning).
//
// Skewed input (Params.Skew > 1) is rejected: the Zipf key table and
// the sorted heavy-head split layout are properties of a complete input
// known up front, which a stream by definition lacks.
func NewStreamSession(p Params, seed int64, cfg mr.Config) (*stream.Session, error) {
	if p.Skew > 1 {
		return nil, fmt.Errorf("synth: streaming SYNTH does not support skewed input (skew=%g): the Zipf tables need the whole input up front", p.Skew)
	}
	p = p.defaulted()
	pipe, err := stream.New(spec(p, seed, nil, nil), cfg)
	if err != nil {
		return nil, err
	}
	// next hands each chunk a fresh contiguous element range; atomic
	// because concurrent producers may append chunks in parallel.
	var next atomic.Int64
	splitSize := p.SplitElements
	return stream.Erase(pipe, stream.EraseOpts[[2]int, int, uint64]{
		Decode: func(rc stream.RawChunk) ([][2]int, error) {
			if len(rc.Lines) > 0 {
				return nil, fmt.Errorf("synth: SYNTH chunks carry elements, not lines")
			}
			if rc.Elements < 0 {
				return nil, fmt.Errorf("synth: chunk elements must be >= 0, got %d", rc.Elements)
			}
			if rc.Elements == 0 {
				return nil, nil
			}
			n := rc.Elements
			if err := pipe.Oversized(n/splitSize + min(n%splitSize, 1)); err != nil {
				return nil, err
			}
			base := int(next.Add(int64(n))) - n
			var splits [][2]int
			for lo := base; lo < base+n; lo += splitSize {
				hi := lo + splitSize
				if hi > base+n {
					hi = base + n
				}
				splits = append(splits, [2]int{lo, hi})
			}
			return splits, nil
		},
		Digest: workloads.SynthPairDigest,
	})
}
