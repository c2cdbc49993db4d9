// Multijob: run several MapReduce jobs concurrently under one shared CPU
// budget. The scheduler hands each job a disjoint, locality-dense CPU
// grant, orders contending jobs by priority-weighted fair-share, and
// bounds admission — the multi-tenant side of the resource-aware runtime.
//
//	go run ./examples/multijob
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"ramr"
)

func wordcount(lines ...string) *ramr.Spec[string, string, int, int] {
	return &ramr.Spec[string, string, int, int]{
		Name:   "wordcount",
		Splits: lines,
		Map: func(line string, emit func(string, int)) {
			for _, w := range strings.Fields(line) {
				emit(w, 1)
			}
		},
		Combine:      ramr.Sum[int](),
		Reduce:       ramr.IdentityReduce[string, int](),
		NewContainer: ramr.HashFactory[string, int](),
		Less:         func(a, b string) bool { return a < b },
	}
}

func main() {
	// A synthetic 56-CPU machine keeps the example deterministic on any
	// host; drop Machine (and the Pin override) to schedule the real box.
	sc, err := ramr.NewScheduler(ramr.SchedulerConfig{
		Machine: ramr.HaswellServer(),
		Seed:    42,
	})
	if err != nil {
		log.Fatal(err)
	}
	cfg := ramr.DefaultConfig()
	cfg.Pin = ramr.PinNone // the synthetic machine's CPUs are not ours to pin

	corpus := []string{
		"the quick brown fox jumps over the lazy dog",
		"the dog barks and the fox runs",
		"quick quick slow the fox naps",
	}

	// Three jobs, three priorities, two engines. Each gets at most 8 of
	// the 56 CPUs, so all run concurrently on disjoint grants.
	type submitted struct {
		h    *ramr.JobHandle[string, int]
		prio string
	}
	var jobs []submitted
	for _, j := range []struct {
		prio    ramr.Priority
		name    string
		phoenix bool
	}{
		{ramr.PriorityHigh, "interactive", false},
		{ramr.PriorityNormal, "batch", false},
		{ramr.PriorityLow, "background-phoenix", true},
	} {
		h, err := ramr.Submit(sc, wordcount(corpus...), cfg, ramr.SubmitOptions{
			Name:     j.name,
			Priority: j.prio,
			MaxCPUs:  8,
			Phoenix:  j.phoenix,
		})
		if err != nil {
			log.Fatal(err)
		}
		jobs = append(jobs, submitted{h, j.name})
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, j := range jobs {
		res, err := j.h.Wait(ctx)
		if err != nil {
			log.Fatalf("%s: %v", j.prio, err)
		}
		st := j.h.Status()
		fmt.Printf("%-20s grant=%v keys=%d wall=%s\n",
			j.prio, st.Grant, len(res.Pairs), res.Phases.Total().Round(time.Microsecond))
	}

	if err := sc.Drain(ctx); err != nil {
		log.Fatal(err)
	}
	st := sc.Stats()
	fmt.Printf("\nbudget=%d finished=%d in_use=%d\n", sc.Budget(), st.Finished, st.InUse)
}
