// Package regcoal is a library reproduction of Bouchez, Darte and Rastello,
// "On the Complexity of Register Coalescing" (LIP RR-2006-15 / CGO 2007).
//
// It provides, as runnable code with machine-checked properties:
//
//   - interference graphs with move affinities, partitions/coalescings and
//     quotients (the paper's §2 formalism);
//   - greedy-k-colorability, coloring number, chordal graph machinery
//     (MCS, PEO, clique trees) — the graph classes of the complexity map;
//   - the four coalescing optimizations: aggressive, conservative (Briggs,
//     George, extended George, brute-force), incremental conservative —
//     including the polynomial Theorem 5 algorithm for chordal graphs —
//     and optimistic (aggressive + de-coalescing);
//   - the four NP-completeness reductions as verified instance
//     transformers (internal/reduction);
//   - a strict-SSA mini compiler pipeline demonstrating Theorem 1 and
//     producing realistic coalescing instances (internal/ir, internal/ssa,
//     internal/regalloc);
//   - an experiment harness regenerating a table per theorem/figure
//     (internal/expt, cmd/experiments, EXPERIMENTS.md).
//
// This package is the facade: it re-exports the types and entry points a
// downstream user needs. Specialized functionality stays importable under
// the internal packages for the binaries and examples in this module.
package regcoal

import (
	"context"
	"io"

	"regcoal/internal/coalesce"
	"regcoal/internal/graph"
	"regcoal/internal/greedy"
	"regcoal/internal/regalloc"
)

// Core graph types, re-exported from internal/graph.
type (
	// Graph is an interference graph with affinities; see NewGraph.
	Graph = graph.Graph
	// V identifies a vertex.
	V = graph.V
	// Affinity is a weighted move edge.
	Affinity = graph.Affinity
	// Coloring assigns a color per vertex.
	Coloring = graph.Coloring
	// Partition is a coalescing (vertex partition).
	Partition = graph.Partition
	// File bundles a graph with its register count for (de)serialization.
	File = graph.File
)

// NoColor marks an uncolored vertex.
const NoColor = graph.NoColor

// NewGraph returns an interference graph with n vertices.
func NewGraph(n int) *Graph { return graph.New(n) }

// NewNamedGraph returns a graph with one vertex per name.
func NewNamedGraph(names ...string) *Graph { return graph.NewNamed(names...) }

// ReadGraph parses the textual instance format (see internal/graph).
func ReadGraph(r io.Reader) (*File, error) { return graph.ReadFrom(r, 0) }

// Strategy names a coalescing strategy for Run.
type Strategy string

// The available strategies.
const (
	// StrategyAggressive merges every move the interferences allow (§3).
	StrategyAggressive Strategy = "aggressive"
	// StrategyBriggs is conservative coalescing with Briggs' rule (§4).
	StrategyBriggs Strategy = "briggs"
	// StrategyGeorge is conservative coalescing with George's rule (§4).
	StrategyGeorge Strategy = "george"
	// StrategyBriggsGeorge combines both local rules (§4).
	StrategyBriggsGeorge Strategy = "briggs+george"
	// StrategyExtendedGeorge uses the §4 extension of George's rule.
	StrategyExtendedGeorge Strategy = "ext-george"
	// StrategyBrute uses the brute-force merge-and-check test (§4).
	StrategyBrute Strategy = "brute"
	// StrategyBruteSets extends StrategyBrute with simultaneous set
	// coalescing of up to two moves — the §4 remark about affinities
	// "obtained by transitivity" that escapes the Figure 3 trap.
	StrategyBruteSets Strategy = "brute-sets"
	// StrategyOptimistic is aggressive coalescing followed by
	// de-coalescing and re-coalescing (§5, Park–Moon).
	StrategyOptimistic Strategy = "optimistic"
)

// Strategies lists every strategy in presentation order.
func Strategies() []Strategy {
	return []Strategy{
		StrategyAggressive, StrategyBriggs, StrategyGeorge, StrategyBriggsGeorge,
		StrategyExtendedGeorge, StrategyBrute, StrategyBruteSets, StrategyOptimistic,
	}
}

// Result is the outcome of a coalescing strategy run.
type Result = coalesce.Result

// Run executes a strategy on g with k registers. It runs the coalesce
// registry's entry of that name; unknown names, and registry entries
// outside the core matrix Strategies lists, report false.
func Run(g *Graph, k int, s Strategy) (*Result, bool) {
	ns, ok := coalesce.LookupStrategy(string(s))
	if !ok || !ns.Core {
		return nil, false
	}
	res, err := ns.Run(context.TODO(), g, k)
	return res, err == nil
}

// IsGreedyKColorable reports whether g survives Chaitin's simplification
// scheme with k colors (§2.2).
func IsGreedyKColorable(g *Graph, k int) bool { return greedy.IsGreedyKColorable(g, k) }

// ColoringNumber computes col(G), the smallest k for which g is
// greedy-k-colorable.
func ColoringNumber(g *Graph) int { return greedy.ColoringNumber(g) }

// GreedyColor produces a proper k-coloring via simplify+select, or
// ok=false when g is not greedy-k-colorable.
func GreedyColor(g *Graph, k int) (Coloring, bool) { return greedy.Color(g, k) }

// ChordalDecision is the constructive Theorem 5 answer.
type ChordalDecision = coalesce.ChordalDecision

// CanCoalesceChordal answers incremental conservative coalescing on a
// chordal graph in polynomial time (Theorem 5): can x and y share a color
// in some proper k-coloring? Returns ErrNotChordal for non-chordal inputs.
func CanCoalesceChordal(g *Graph, x, y V, k int) (*ChordalDecision, error) {
	return coalesce.ChordalIncremental(g, x, y, k)
}

// ErrNotChordal is returned by CanCoalesceChordal on non-chordal graphs.
var ErrNotChordal = coalesce.ErrNotChordal

// AllocMode selects the coalescing mode of Allocate.
type AllocMode = regalloc.Mode

// Allocation modes.
const (
	AllocNone         = regalloc.ModeNone
	AllocConservative = regalloc.ModeConservative
	AllocBrute        = regalloc.ModeBrute
	AllocOptimistic   = regalloc.ModeOptimistic
	AllocAggressive   = regalloc.ModeAggressive
)

// AllocResult is a graph-level allocation outcome.
type AllocResult = regalloc.Result

// Allocate coalesces and colors g with k registers, reporting spills.
func Allocate(g *Graph, k int, mode AllocMode) (*AllocResult, error) {
	return regalloc.Allocate(g, k, mode)
}
