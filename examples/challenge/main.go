// Challenge corpus comparison: build a mixed corpus of coalescing
// instances (SSA-derived and synthetic, in the spirit of the Appel–George
// coalescing challenge) from the corpus families and compare every
// strategy's coalesced move weight, each instance at its own k.
package main

import (
	"fmt"

	"regcoal"
	"regcoal/internal/corpus"
)

func main() {
	fams, err := corpus.Select("ssa,ssa-reduced,chordal,interval,er-sparse")
	if err != nil {
		panic(err)
	}
	insts, err := corpus.BuildAll(fams, corpus.Params{Seed: 42, Quick: true})
	if err != nil {
		panic(err)
	}
	fmt.Printf("corpus: %d instances\n\n", len(insts))

	totals := map[regcoal.Strategy]int64{}
	colorable := map[regcoal.Strategy]int{}
	var movable int64
	for _, inst := range insts {
		g, k := inst.File.G, inst.File.K
		movable += g.TotalAffinityWeight()
		fmt.Printf("%-24s n=%-4d e=%-5d moves=%-3d weight=%-5d k=%d\n",
			inst.Name, g.N(), g.E(), g.NumAffinities(), g.TotalAffinityWeight(), k)
		for _, s := range regcoal.Strategies() {
			res, _ := regcoal.Run(g, k, s)
			totals[s] += res.CoalescedWeight
			if res.Colorable {
				colorable[s]++
			}
		}
	}
	fmt.Printf("\n%-14s %12s %10s %12s\n", "strategy", "saved", "share", "colorable")
	for _, s := range regcoal.Strategies() {
		fmt.Printf("%-14s %12d %9.1f%% %9d/%d\n",
			s, totals[s], 100*float64(totals[s])/float64(movable), colorable[s], len(insts))
	}
}
