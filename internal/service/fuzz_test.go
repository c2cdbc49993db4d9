package service

import (
	"bytes"
	"fmt"
	"testing"

	"ramr/internal/mr"
	"ramr/internal/topology"
)

// canonicalForm renders everything a resolved request's computation
// depends on, field by field from the plan — never from the digest — so
// it can stand against the digest as an independent identity. Table I
// apps are identified by their parsed platform/class/container, SYNTH by
// its defaulted parameters; scheduling hints are left out, as they are
// from the digest.
func canonicalForm(req *JobRequest, p *plan) string {
	c := p.cfg
	input := fmt.Sprintf("%+v", p.synth)
	if p.app != "SYNTH" {
		platform, _ := parsePlatform(req.Platform)
		class, _ := parseClass(req.Class)
		input = fmt.Sprint(platform, class, p.kind)
	}
	var stream mr.StreamSpec
	if c.Stream != nil {
		stream = c.Stream.Resolved()
	}
	shard := "whole"
	if p.shard != nil {
		shard = p.shard.String()
	}
	return fmt.Sprint(p.app, p.engine, p.seed, c.Tuner != nil, input, shard, stream,
		p.mappers, p.combiners, c.Ratio, c.TaskSize, c.QueueCapacity, c.BatchSize, c.EmitBatch, c.Pin, c.Steal)
}

// FuzzJobRequest feeds arbitrary bytes through the one request path —
// decode, then resolve — two bodies at a time. Neither step may panic,
// whatever the bytes; resolve takes no Service and returns a plan of
// scalars, so it cannot build an input. And the content digest must be
// exactly as fine as the computation's identity: two bodies resolve to
// equal canonical forms if and only if their digests are equal —
// otherwise the memo cache would serve one computation's result for
// another, or miss a repeat.
func FuzzJobRequest(f *testing.F) {
	var seeds []string
	for _, row := range goldenDigests {
		seeds = append(seeds, row.body)
	}
	seeds = append(seeds, badRequestBodies...)
	for i, body := range seeds {
		f.Add([]byte(body), []byte(seeds[(i+1)%len(seeds)]))
	}
	m := topology.HaswellServer()
	resolved := func(body []byte) (*JobRequest, *plan) {
		req, err := decodeJobRequest(bytes.NewReader(body))
		if err != nil {
			return nil, nil
		}
		p, err := resolve(req, m)
		if err != nil {
			return nil, nil
		}
		return req, p
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ra, pa := resolved(a)
		rb, pb := resolved(b)
		if pa == nil || pb == nil {
			return
		}
		ca, cb := canonicalForm(ra, pa), canonicalForm(rb, pb)
		if (ca == cb) != (pa.digest == pb.digest) {
			t.Fatalf("identity and digest disagree:\n a %s\n   %s\n   %s\n b %s\n   %s\n   %s",
				a, ca, pa.digest, b, cb, pb.digest)
		}
	})
}
