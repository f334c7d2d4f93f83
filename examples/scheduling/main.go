// Scheduling: the Figure 9 scenario — a multi-loop application where the
// BSA choice is hierarchical (accelerate the whole nest with one BSA, or
// each inner loop with its own?). Compares the measured Oracle against
// the estimate-driven Amdahl-tree scheduler.
//
// Run with: go run ./examples/scheduling
package main

import (
	"fmt"
	"log"
	"sort"

	"exocore/internal/cores"
	"exocore/internal/runner"
	"exocore/internal/workloads"
)

func main() {
	wl, err := workloads.ByName("cjpeg") // three phases with different affinities
	if err != nil {
		log.Fatal(err)
	}
	// The engine builds trace → TDG → scheduling context in one cached
	// call, measuring the candidate solos the Oracle below reads; a
	// second lookup would be free.
	avail := []string{"SIMD", "DP-CGRA", "NS-DF", "Trace-P"}
	eng := runner.New(runner.Options{MaxDyn: 60000})
	ctx, err := eng.Solos(wl, cores.OOO2, avail)
	if err != nil {
		log.Fatal(err)
	}
	td := ctx.TDG

	// The Amdahl tree's inputs: per-loop estimated speedups per BSA.
	fmt.Println("loop tree with per-BSA speedup estimates (Figure 9):")
	var loops []int
	for l := range td.Nest.Loops {
		loops = append(loops, l)
	}
	sort.Ints(loops)
	for _, l := range loops {
		indent := ""
		for d := 1; d < td.Nest.Loops[l].Depth; d++ {
			indent += "  "
		}
		fmt.Printf("  %sL%d (%.0f%% of execution):", indent, l, 100*td.Prof.LoopShare(l))
		for _, name := range []string{"SIMD", "DP-CGRA", "NS-DF", "Trace-P"} {
			if r := ctx.Plans[name].Region(l); r != nil {
				fmt.Printf("  %s %.1fx", name, r.EstSpeedup)
			}
		}
		fmt.Println()
	}

	for _, s := range []struct {
		name   string
		assign map[int]string
	}{
		{"Oracle", ctx.Oracle(avail)},
		{"Amdahl tree", ctx.AmdahlTree(avail)},
	} {
		cycles, energyNJ, err := ctx.Evaluate(s.assign)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s scheduler:\n", s.name)
		var ls []int
		for l := range s.assign {
			ls = append(ls, l)
		}
		sort.Ints(ls)
		for _, l := range ls {
			fmt.Printf("  L%d -> %s\n", l, s.assign[l])
		}
		fmt.Printf("  %d cycles (%.2fx), %.0f nJ (%.2fx energy eff)\n",
			cycles, float64(ctx.BaseCycles)/float64(cycles),
			energyNJ, ctx.BaseEnergyNJ/energyNJ)
	}
}
