// Command ramrtopo inspects machine topologies and the RAMR pinning plans
// derived from them, and says whether a run on the plan ships pairs through
// rings (core.Plan.ShipsPairs) or is one fused pool.
//
// Usage:
//
//	ramrtopo                           # detected host summary
//	ramrtopo -preset haswell-server    # paper platform presets
//	ramrtopo -preset xeon-phi -mappers 114 -combiners 114
//	ramrtopo -demo                     # the paper's Fig. 3 walkthrough
//	ramrtopo -pin rr -mappers 8 -combiners 4
package main

import (
	"flag"
	"fmt"
	"os"

	"ramr/internal/core"
	"ramr/internal/mr"
	"ramr/internal/topology"
)

func main() {
	preset := flag.String("preset", "", "topology preset (haswell-server, xeon-phi, fig3-example); empty = detect host")
	demo := flag.Bool("demo", false, "print the paper's Fig. 3 remapping walkthrough")
	mappers := flag.Int("mappers", 0, "mapper count for the pinning plan (0 = half the logical CPUs)")
	combiners := flag.Int("combiners", 0, "combiner count for the pinning plan (0 = equal to mappers)")
	pin := flag.String("pin", "ramr", "pinning policy: ramr | rr | none")
	flag.Parse()

	if *demo {
		m := topology.Fig3Example()
		fmt.Println(m)
		fmt.Println("compact (thridtocpu) order:", m.CompactOrder())
		plan := core.BuildPlan(m, 8, 8, mr.PinRAMR)
		fmt.Print(plan)
		return
	}

	var m *topology.Machine
	if *preset == "" {
		m = topology.Detect()
	} else {
		f, ok := topology.Presets()[*preset]
		if !ok {
			fmt.Fprintf(os.Stderr, "ramrtopo: unknown preset %q; available:", *preset)
			for name := range topology.Presets() {
				fmt.Fprintf(os.Stderr, " %s", name)
			}
			fmt.Fprintln(os.Stderr)
			os.Exit(2)
		}
		m = f()
	}

	fmt.Println(m)
	for _, c := range m.Caches {
		fmt.Printf("  L%d: %d KiB, %d-way, %s, ~%d cycles\n",
			c.Level, c.SizeBytes>>10, c.Assoc, c.Scope, c.LatencyCycles)
	}
	fmt.Println("  locality groups:", len(m.LocalityGroups()))

	nm := *mappers
	if nm == 0 {
		nm = m.NumCPUs() / 2
		if nm < 1 {
			nm = 1
		}
	}
	nc := *combiners
	if nc == 0 {
		nc = nm
	}
	policy, err := mr.ParsePinPolicy(*pin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ramrtopo:", err)
		os.Exit(2)
	}
	plan := core.BuildPlan(m, nm, nc, policy)
	fmt.Print(plan)
	if d := plan.MaxDistance(m); d >= 0 {
		fmt.Printf("worst combiner-mapper distance: %d\n", d)
	}
	if j, i, ok := plan.SiblingPair(m); ok {
		fmt.Printf("ships pairs: yes (combiner %d on an SMT sibling of mapper %d)\n", j, i)
	} else {
		fmt.Printf("ships pairs: no — one fused pool of %d workers\n", len(plan.FusedPool(nil)))
	}
}
