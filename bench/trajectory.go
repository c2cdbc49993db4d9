package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"ramr/internal/topology"
)

// schemaVersion is bumped on any incompatible change to the files -out
// and -trajectory write.
const schemaVersion = 1

// hostInfo records where numbers were measured: results from different
// host classes are not comparable.
type hostInfo struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Topology   string `json:"topology"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
}

func detectHost(root string) hostInfo {
	h := hostInfo{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Topology:   topology.Detect().String(),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     "unknown",
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// agreement is one (workload, metric) pair of two run sets of the same
// commit: they agree when they differ by no more than the metric's own
// bound.
type agreement struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	RelDiff  float64 `json:"rel_diff"`
	Bound    float64 `json:"bound"`
	Agree    bool    `json:"agree"`
}

// agreementSet compares two run sets.
type agreementSet struct {
	A           string      `json:"a"`
	B           string      `json:"b"`
	Pairs       []agreement `json:"pairs"`
	CountDiffs  []string    `json:"count_diffs"`
	AllAgree    bool        `json:"all_agree"`
	CountsExact bool        `json:"counts_repeat_exactly"`
}

// trajectoryPoint is one BENCH_<n>.json: run sets of one commit and how
// well they agree with each other. It records a baseline, not a claim.
type trajectoryPoint struct {
	SchemaVersion int             `json:"schema_version"`
	Host          hostInfo        `json:"host"`
	Note          string          `json:"note"`
	Sets          []trajectorySet `json:"sets"`
	Agreement     []agreementSet  `json:"agreement"`
}

type trajectorySet struct {
	Name string    `json:"name"`
	Seed int64     `json:"seed"`
	Runs []*result `json:"runs"`
}

func agree(nameA, nameB string, a, b *resultsFile) agreementSet {
	set := agreementSet{A: nameA, B: nameB, AllAgree: true}
	for _, wl := range allWorkloads {
		for _, m := range endToEnd {
			if !isNative(m, wl) {
				continue
			}
			xa, xb := valuesOf(a, wl, false, m.Name), valuesOf(b, wl, false, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			p := agreement{Workload: wl, Metric: m.Name, A: ma, B: mb, Bound: m.Bound}
			if ma != 0 {
				p.RelDiff = math.Abs(mb-ma) / math.Abs(ma)
			}
			p.Agree = p.RelDiff <= m.Bound
			set.AllAgree = set.AllAgree && p.Agree
			set.Pairs = append(set.Pairs, p)
		}
		set.CountDiffs = append(set.CountDiffs, countDiffs(a, b, wl)...)
	}
	set.CountsExact = len(set.CountDiffs) == 0
	return set
}

// writeTrajectory merges -out files of one commit into a trajectory
// point: every set is kept whole, and each later set is compared with
// the first.
func writeTrajectory(path string, files []string) error {
	if len(files) == 0 {
		return fmt.Errorf("-trajectory needs at least one -out file")
	}
	var sets []*resultsFile
	for _, f := range files {
		rf, err := readResults(f)
		if err != nil {
			return err
		}
		if len(rf.Runs) == 0 {
			return fmt.Errorf("%s holds no runs", f)
		}
		sets = append(sets, rf)
	}
	tp := trajectoryPoint{
		SchemaVersion: schemaVersion,
		Host:          sets[0].Host,
		Note:          "baseline only: this point records where the repository stands and claims no gain",
	}
	name := func(i int) string { return fmt.Sprintf("set%d", i+1) }
	for i, s := range sets {
		tp.Sets = append(tp.Sets, trajectorySet{Name: name(i), Seed: s.Runs[0].Seed, Runs: s.Runs})
		if i > 0 {
			tp.Agreement = append(tp.Agreement, agree(name(0), name(i), sets[0], s))
		}
	}
	b, err := json.MarshalIndent(tp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
