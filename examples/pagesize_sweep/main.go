// Page-size sweep: quantify how translation granularity changes
// single-core performance (the paper's §4.5 / Fig 15). Larger pages
// mean fewer pages per tile — fewer walks — and shallower page tables.
//
//	go run ./examples/pagesize_sweep
package main

import (
	"fmt"
	"log"

	"mnpusim/internal/sim"
	"mnpusim/internal/workloads"
)

func main() {
	params := sim.ParamsFor(workloads.ScaleTiny)
	pages := params.PageLadder // stand-ins for 4KB / 64KB / 1MB

	fmt.Printf("page ladder at tiny scale: %v (walk depths 4/3/2)\n\n", pages)
	fmt.Printf("%-8s", "model")
	for _, p := range pages {
		fmt.Printf(" %12s", p)
	}
	fmt.Printf(" %10s %10s\n", "speedup2", "speedup3")

	for _, w := range workloads.Names() {
		var cycles []int64
		var walks []int64
		for i, page := range pages {
			cfg, err := sim.NewIdealConfig(workloads.ScaleTiny, w)
			if err != nil {
				log.Fatal(err)
			}
			cfg.PageSize = page
			cfg.WalkLevels = 4 - i
			res, err := sim.Run(cfg)
			if err != nil {
				log.Fatal(err)
			}
			cycles = append(cycles, res.Cores[0].Cycles)
			walks = append(walks, res.Cores[0].MMU.Walks)
		}
		fmt.Printf("%-8s", w)
		for i := range pages {
			fmt.Printf(" %8d(%4d)", cycles[i], walks[i])
		}
		fmt.Printf(" %10.3f %10.3f\n",
			float64(cycles[0])/float64(cycles[1]),
			float64(cycles[0])/float64(cycles[2]))
	}
	fmt.Println("\ncolumns show cycles(walks); speedup2/3 are the larger pages over the base page.")
	fmt.Println("Memory-intensive models (dlrm, sfrnn) gain the most; compute-bound ones barely move.")
}
