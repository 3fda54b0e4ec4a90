// Command coalesce runs a coalescing strategy on an instance file in the
// textual challenge format (or DIMACS) and reports what was coalesced.
//
// Usage:
//
//	coalesce -in instance.g -strategy brute [-k 6] [-compare] [-color]
//	coalesce -in instance.col -dimacs -strategy exact -timeout 5s -json
//
// With -compare, the full strategy matrix (every registry strategy plus
// the IRC allocator and the exact solver) runs and a comparison is
// printed. With -json, results stream as engine records (the same JSONL
// schema cmd/bench emits). -timeout bounds each strategy run; the
// cancelable solvers (exact) stop at the deadline and the record reports
// the timeout.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"regcoal"
	"regcoal/internal/coalesce"
	"regcoal/internal/corpus"
	"regcoal/internal/engine"
	"regcoal/internal/graph"
)

func main() {
	var (
		inPath   = flag.String("in", "", "instance file (default stdin)")
		strategy = flag.String("strategy", "briggs+george", "strategy: a registry strategy, irc, or exact")
		kFlag    = flag.Int("k", 0, "register count (overrides the file's k)")
		compare  = flag.Bool("compare", false, "run the full strategy matrix and compare")
		color    = flag.Bool("color", false, "print a coloring of the coalesced graph")
		dimacs   = flag.Bool("dimacs", false, "input is DIMACS .col (with regcoal comments)")
		jsonOut  = flag.Bool("json", false, "emit engine records as JSONL instead of text")
		timeout  = flag.Duration("timeout", 0, "per-strategy timeout (0 = none); cancelable solvers stop early")
	)
	flag.Parse()
	if err := run(*inPath, *strategy, *kFlag, *compare, *color, *dimacs, *jsonOut, *timeout); err != nil {
		fmt.Fprintln(os.Stderr, "coalesce:", err)
		os.Exit(1)
	}
}

func run(inPath, strategy string, kFlag int, compare, color, dimacs, jsonOut bool, timeout time.Duration) error {
	in := os.Stdin
	name := "stdin"
	if inPath != "" {
		f, err := os.Open(inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
		name = filepath.Base(inPath)
	}
	var file *graph.File
	var err error
	if dimacs {
		file, err = graph.ReadDIMACSFile(in, 0)
	} else {
		file, err = graph.ReadFrom(in, 0)
	}
	if err != nil {
		return err
	}
	k := file.K
	if kFlag > 0 {
		k = kFlag
	}
	if k <= 0 {
		return fmt.Errorf("no register count: set one in the file ('k 6') or pass -k")
	}
	file = &graph.File{G: file.G, K: k}
	g := file.G

	matrix := engine.StandardMatrix()
	runners := matrix
	if !compare {
		runners = nil
		for _, r := range matrix {
			if r.Name == strategy {
				runners = []engine.Runner{r}
				break
			}
		}
		if runners == nil {
			// Non-core registry strategies (chordal-inc, vegdahl) are not
			// matrix columns but are still selectable by name.
			if st, ok := coalesce.LookupStrategy(strategy); ok {
				runners = []engine.Runner{engine.StrategyRunner(st)}
			}
		}
		if runners == nil {
			return fmt.Errorf("unknown strategy %q (have %v)",
				strategy, append(engine.MatrixNames(matrix), "chordal-inc", "vegdahl"))
		}
	}

	inst := &corpus.Instance{Family: "adhoc", Name: name, File: file}
	cfg := engine.Config{Parallel: 1, Timeout: timeout, Timing: jsonOut}
	var sink engine.Sink
	if jsonOut {
		sink = engine.JSONLSink(os.Stdout)
	}
	recs, err := engine.Run(context.Background(), cfg, []*corpus.Instance{inst}, runners, sink)
	if err != nil {
		return err
	}
	if jsonOut {
		return nil
	}

	fmt.Printf("instance: %d vertices, %d interferences, %d moves (weight %d), k=%d\n",
		g.N(), g.E(), g.NumAffinities(), g.TotalAffinityWeight(), k)
	fmt.Printf("greedy-%d-colorable before coalescing: %v\n\n", k, regcoal.IsGreedyKColorable(g, k))
	for _, rec := range recs {
		if rec.Status != engine.StatusOK {
			fmt.Printf("%-14s %s: %s\n", rec.Strategy, rec.Status, rec.Error)
			continue
		}
		fmt.Printf("%-14s coalesced %d moves (weight %d), kept %d (weight %d), colorable=%v, rounds=%d",
			rec.Strategy, rec.CoalescedMoves, rec.CoalescedWeight,
			rec.Moves-rec.CoalescedMoves, rec.ResidualWeight, rec.GreedyAfter, rec.Rounds)
		if rec.Spills > 0 {
			fmt.Printf(", spills=%d", rec.Spills)
		}
		fmt.Println()
	}
	if color && !compare {
		printColoring(g, k)
	}
	return nil
}

func printColoring(g *regcoal.Graph, k int) {
	alloc, err := regcoal.Allocate(g, k, regcoal.AllocNone)
	if err != nil || len(alloc.Spilled) > 0 {
		fmt.Println("  (coloring failed)")
		return
	}
	for v := 0; v < g.N(); v++ {
		fmt.Printf("  %-12s -> r%d\n", g.Name(regcoal.V(v)), alloc.Coloring[v])
	}
}
