package main

import (
	"encoding/json"
	"math/rand"
	"sort"

	"ramr/internal/workloads"
)

// jobBody is the POST /jobs document the benchmark sends. Field order
// and omitted zero values make its encoding a pure function of the
// schedule, so a schedule is byte-identical for a seed.
type jobBody struct {
	Workload string     `json:"workload"`
	Class    string     `json:"class,omitempty"`
	Seed     int64      `json:"seed"`
	Priority string     `json:"priority,omitempty"`
	MaxCPUs  int        `json:"max_cpus,omitempty"`
	Config   configBody `json:"config"`
	Synth    *synthBody `json:"synth,omitempty"`
}

// configBody is the engine overlay every submitted job carries. Threads
// are left to the OS scheduler: on the 2-CPU reference host the default
// pinned placement with the sleeping producer swings one job's time up
// to fivefold from run to run (bench/README.md, measured facts), which
// no bound could gate. Mappers and combiners still follow the grant.
type configBody struct {
	Pin string `json:"pin"`
}

var unpinned = configBody{Pin: "none"}

type synthBody struct {
	Elements int `json:"elements"`
}

// serveSynthElements sizes serve_mixed's "small SYNTH": about as long
// as the HWL-Small Table I jobs around it.
const serveSynthElements = 20_000

// clusterSynthElements is the service's SYNTH default, the size
// cluster_shard runs beside the HWL-Large Table I jobs.
const clusterSynthElements = 200_000

func encodeBody(p jobParams, priority string, maxCPUs int) []byte {
	b := jobBody{Workload: p.App, Seed: p.Seed, Priority: priority, MaxCPUs: maxCPUs, Config: unpinned}
	if p.App == "SYNTH" {
		b.Synth = &synthBody{Elements: p.Elements}
	} else {
		b.Class = map[workloads.SizeClass]string{workloads.Small: "small", workloads.Large: "large"}[p.Class]
	}
	out, err := json.Marshal(b)
	if err != nil {
		panic(err) // a struct of strings and ints always encodes
	}
	return out
}

type opKind int

const (
	opCold   opKind = iota // fresh seed: builds its input and executes
	opRepeat               // body of an earlier finished op: memo hit, 200
	opDup                  // one body POSTed twice back to back: the second coalesces
)

func (k opKind) String() string { return [...]string{"cold", "repeat", "dup"}[k] }

// serveOp is one entry of a client's operation list.
type serveOp struct {
	Kind   opKind    `json:"kind"`
	Params jobParams `json:"params"`
	Body   string    `json:"body"`
	// Target is the index, in the same client's list, of the op whose
	// body a repeat re-submits.
	Target int `json:"target"`
}

// repeatGap keeps a repeat's target at least this many operations back
// in its client's list: ramrd inserts a result into the memo cache just
// after the job's state turns done, and an immediate re-submission
// could still find it in flight and coalesce instead of hitting.
const repeatGap = 2

var serveApps = []string{"WC", "HG", "LR", "KM", "SYNTH"}

// serveSchedule builds each client's list for serve_mixed. The mix is
// fixed by quota — 60 % cold, 30 % repeats, 10 % duplicate-in-flight;
// cold ops spread evenly over WC, HG, LR, KM and SYNTH, priorities
// 20/60/20, half capped to one CPU — and the seed decides only the
// order, the input seeds and which finished op a repeat picks. Runs with
// different seeds therefore do the same amount of work. Repeats draw
// from their own client's history, whose ops are finished by then
// (closed loop), which makes hit and coalesce counts exact.
func serveSchedule(seed int64, nOps, nClients int) [][]serveOp {
	lists := make([][]serveOp, nClients)
	for c := range lists {
		n := nOps / nClients
		if c < nOps%nClients {
			n++
		}
		lists[c] = clientSchedule(rand.New(rand.NewSource(subSeed(seed, "serve-order", c))), seed, c, n)
	}
	return lists
}

func clientSchedule(rng *rand.Rand, seed int64, client, n int) []serveOp {
	nDup, nRepeat := n/10, 3*n/10
	nCold := n - nDup - nRepeat
	lead := min(repeatGap+1, nCold) // cold ops first, so every repeat has a target

	kinds := make([]opKind, 0, n)
	for i := 0; i < nCold-lead; i++ {
		kinds = append(kinds, opCold)
	}
	for i := 0; i < nRepeat; i++ {
		kinds = append(kinds, opRepeat)
	}
	for i := 0; i < nDup; i++ {
		kinds = append(kinds, opDup)
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	for i := 0; i < lead; i++ {
		kinds = append([]opKind{opCold}, kinds...)
	}

	apps := make([]string, nCold)
	prios := make([]string, nCold)
	caps := make([]int, nCold)
	for i := range apps {
		apps[i] = serveApps[i%len(serveApps)]
		switch {
		case i*5 < nCold: // first fifth
			prios[i] = "low"
		case i*5 >= nCold*4: // last fifth
			prios[i] = "high"
		default:
			prios[i] = "normal"
		}
		caps[i] = i % 2 // 1 = one CPU, grants run side by side; 0 = whole budget, they queue
	}
	rng.Shuffle(nCold, func(i, j int) { apps[i], apps[j] = apps[j], apps[i] })
	rng.Shuffle(nCold, func(i, j int) { prios[i], prios[j] = prios[j], prios[i] })
	rng.Shuffle(nCold, func(i, j int) { caps[i], caps[j] = caps[j], caps[i] })

	// Repeats are spread evenly over the apps too: a memo hit still pays
	// its app's input build, so an uneven draw would move hit_job_s_p50
	// from one app's build time to another's.
	wantApp := make([]string, nRepeat)
	for i := range wantApp {
		wantApp[i] = serveApps[i%len(serveApps)]
	}
	rng.Shuffle(nRepeat, func(i, j int) { wantApp[i], wantApp[j] = wantApp[j], wantApp[i] })

	ops := make([]serveOp, 0, n)
	cold := 0
	for i, k := range kinds {
		op := serveOp{Kind: k, Target: -1}
		switch k {
		case opCold:
			op.Params = jobParams{App: apps[cold], Class: workloads.Small, Seed: subSeed(seed, "serve-input", client*1_000_000+i)}
			if op.Params.App == "SYNTH" {
				op.Params.Elements = serveSynthElements
			}
			op.Body = string(encodeBody(op.Params, prios[cold], caps[cold]))
			cold++
		case opDup:
			// SYNTH builds in microseconds and runs for tens of
			// milliseconds, so the second POST always finds the first
			// in flight.
			op.Params = jobParams{App: "SYNTH", Seed: subSeed(seed, "serve-input", client*1_000_000+i), Elements: serveSynthElements}
			op.Body = string(encodeBody(op.Params, "normal", 0))
		case opRepeat:
			// Eligible targets: cold ops far enough back, of the first
			// app still owed a repeat that has one.
			byApp := map[string][]int{}
			for e := 0; e <= i-1-repeatGap; e++ {
				if ops[e].Kind == opCold {
					byApp[ops[e].Params.App] = append(byApp[ops[e].Params.App], e)
				}
			}
			pick := 0
			for w, app := range wantApp {
				if len(byApp[app]) > 0 {
					pick = w
					break
				}
			}
			eligible := byApp[wantApp[pick]]
			if len(eligible) == 0 { // none of the owed apps has run yet: any finished cold op
				for _, es := range byApp {
					eligible = append(eligible, es...)
				}
				sort.Ints(eligible)
			}
			wantApp = append(wantApp[:pick], wantApp[pick+1:]...)
			op.Target = eligible[rng.Intn(len(eligible))]
			op.Params = ops[op.Target].Params
			op.Body = ops[op.Target].Body
		}
		ops = append(ops, op)
	}
	return ops
}

// clusterSchedule is cluster_shard's list: cold jobs cycling WC, HG and
// SYNTH at HWL-Large, each with a fresh input seed.
func clusterSchedule(seed int64, n int) []serveOp {
	apps := []string{"WC", "HG", "SYNTH"}
	ops := make([]serveOp, n)
	for i := range ops {
		p := jobParams{App: apps[i%len(apps)], Class: workloads.Large, Seed: subSeed(seed, "cluster-input", i)}
		if p.App == "SYNTH" {
			p.Elements = clusterSynthElements
		}
		ops[i] = serveOp{Kind: opCold, Params: p, Body: string(encodeBody(p, "", 0)), Target: -1}
	}
	return ops
}

// sampleOps picks a seeded share of indices in [0, n), at least one.
func sampleOps(seed int64, stream string, n int, share float64) []int {
	k := min(n, max(1, int(float64(n)*share+0.5)))
	rng := rand.New(rand.NewSource(subSeed(seed, stream, 0)))
	return rng.Perm(n)[:k]
}
