package main

import (
	"fmt"

	"ramr/internal/container"
	"ramr/internal/synth"
	"ramr/internal/workloads"
)

// reference is what identifies a job's output: the order-independent
// digest where the app has exact arithmetic, the number of distinct
// output keys otherwise (KM's float output has digest 0).
type reference struct {
	digest uint64
	pairs  int
}

func referenceOf(info *workloads.RunInfo) reference {
	if info.Digest != 0 {
		return reference{digest: info.Digest}
	}
	return reference{pairs: info.Pairs}
}

// String renders the reference the way resultDoc.outcome renders a
// daemon's result document.
func (r reference) String() string {
	if r.digest != 0 {
		return fmt.Sprintf("%016x", r.digest)
	}
	return fmt.Sprintf("pairs=%d", r.pairs)
}

// jobParams is the identity of a job submitted to a daemon: enough to
// rebuild the same computation in this process.
type jobParams struct {
	App   string // WC, HG, LR, KM or SYNTH
	Class workloads.SizeClass
	Seed  int64
	// Elements sizes a SYNTH job (other SYNTH parameters keep the
	// service's defaults).
	Elements int
}

// referenceRun computes the job's output with the in-process Phoenix++
// engine. The output does not depend on the container kind, so each app
// uses its plain default rather than whatever the service picked.
func referenceRun(p jobParams) (reference, error) {
	var job *workloads.Job
	if p.App == "SYNTH" {
		sp := synth.DefaultParams()
		sp.Elements = p.Elements
		job = synth.NewJob(sp, p.Seed)
	} else {
		in, err := workloads.Input(p.App, workloads.HWL, p.Class)
		if err != nil {
			return reference{}, err
		}
		kind := container.KindFixedArray
		if p.App == "WC" {
			kind = container.KindHash
		}
		if job, err = workloads.NewJobParams(p.App, in.Params, kind, p.Seed); err != nil {
			return reference{}, err
		}
	}
	info, err := job.Run(workloads.EnginePhoenix, engineConfig())
	if err != nil {
		return reference{}, err
	}
	return referenceOf(info), nil
}
