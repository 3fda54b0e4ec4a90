// Package exact provides exponential-time exact solvers used as ground
// truth when verifying the heuristics and the NP-completeness reductions:
// exact k-colorability, exact coloring with identification of two vertices
// (the incremental conservative coalescing question of Theorems 4 and 5),
// optimal aggressive coalescing (Theorem 2's objective), optimal
// conservative coalescing (Theorem 3's objective), and optimal
// de-coalescing (Theorem 6's objective).
//
// All solvers are intended for the small instances used in reduction
// verification sweeps; the benchmark harness uses them to exhibit the
// exponential wall that motivates the paper's search for polynomial special
// cases.
package exact

import (
	"context"
	"fmt"

	"regcoal/internal/graph"
	"regcoal/internal/greedy"
)

// canceler polls a context every checkEvery backtracking nodes, so that
// the exponential searches below can be cut off by the engine's per-run
// timeouts without busy-checking the context on every node.
type canceler struct {
	ctx   context.Context
	count int
	err   error
}

const checkEvery = 1024

// stop reports whether the search should abort, latching the context
// error on the first observation.
func (c *canceler) stop() bool {
	if c == nil || c.ctx == nil {
		return false
	}
	if c.err != nil {
		return true
	}
	c.count++
	if c.count%checkEvery == 0 {
		c.err = c.ctx.Err()
	}
	return c.err != nil
}

// KColorable decides exact k-colorability by backtracking with a
// max-degree-first static order and symmetry breaking (a vertex may only
// use a color at most one beyond the largest color used so far, unless
// precolored vertices fix colors). Precolored vertices keep their pins.
// It returns a proper coloring when one exists.
func KColorable(g *graph.Graph, k int) (graph.Coloring, bool) {
	col, ok, _ := KColorableCtx(context.Background(), g, k)
	return col, ok
}

// KColorableCtx is KColorable with cooperative cancellation: when ctx is
// canceled or times out mid-search, it returns ctx's error and an
// undefined verdict.
func KColorableCtx(ctx context.Context, g *graph.Graph, k int) (graph.Coloring, bool, error) {
	n := g.N()
	if k < 0 {
		return nil, false, nil
	}
	cancel := &canceler{ctx: ctx}
	col := graph.NewColoring(n)
	hasPins := false
	for v := 0; v < n; v++ {
		if c, ok := g.Precolored(graph.V(v)); ok {
			if c >= k {
				return nil, false, nil
			}
			col[v] = c
			hasPins = true
		}
	}
	// Check pinned skeleton.
	for _, e := range g.Edges() {
		if col[e[0]] != graph.NoColor && col[e[0]] == col[e[1]] {
			return nil, false, nil
		}
	}
	// Order free vertices by degree, densest first.
	var order []graph.V
	for v := 0; v < n; v++ {
		if col[v] == graph.NoColor {
			order = append(order, graph.V(v))
		}
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && g.Degree(order[j]) > g.Degree(order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	var rec func(i, maxUsed int) bool
	rec = func(i, maxUsed int) bool {
		if cancel.stop() {
			return false
		}
		if i == len(order) {
			return true
		}
		v := order[i]
		forbidden := 0 // bitmask of neighbor colors (k <= 62 in practice)
		g.ForEachNeighbor(v, func(w graph.V) {
			if col[w] != graph.NoColor {
				forbidden |= 1 << uint(col[w])
			}
		})
		limit := k
		if !hasPins && maxUsed+1 < limit {
			// Symmetry breaking: without pins, color classes are
			// interchangeable, so trying one fresh color suffices.
			limit = maxUsed + 1
		}
		for c := 0; c < limit; c++ {
			if forbidden&(1<<uint(c)) != 0 {
				continue
			}
			col[v] = c
			next := maxUsed
			if c == maxUsed {
				next = maxUsed + 1
			}
			if rec(i+1, next) {
				return true
			}
			col[v] = graph.NoColor
		}
		return false
	}
	maxUsed := 0
	if hasPins {
		for _, c := range col {
			if c != graph.NoColor && c+1 > maxUsed {
				maxUsed = c + 1
			}
		}
	}
	if !rec(0, maxUsed) {
		return nil, false, cancel.err
	}
	return col, true, nil
}

// ChromaticNumber computes χ(g) by probing KColorable for increasing k.
func ChromaticNumber(g *graph.Graph) int {
	if g.N() == 0 {
		return 0
	}
	for k := 1; ; k++ {
		if _, ok := KColorable(g, k); ok {
			return k
		}
	}
}

// KColorableIdentified decides whether g has a proper k-coloring assigning
// the same color to x and y — the incremental conservative coalescing
// question. It merges x and y (when not interfering) and answers exact
// k-colorability of the quotient, returning the witnessing coloring of the
// original graph.
func KColorableIdentified(g *graph.Graph, x, y graph.V, k int) (graph.Coloring, bool) {
	if x == y {
		return KColorable(g, k)
	}
	if g.HasEdge(x, y) {
		return nil, false
	}
	p := graph.NewPartition(g.N())
	p.Union(x, y)
	q, old2new, err := graph.Quotient(g, p)
	if err != nil {
		return nil, false
	}
	col, ok := KColorable(q, k)
	if !ok {
		return nil, false
	}
	return col.Lift(old2new), true
}

// Objective selects what an optimal coalescing minimizes over the
// affinities left uncoalesced.
type Objective int

const (
	// MinimizeCount minimizes the number of uncoalesced affinities (the
	// paper's K).
	MinimizeCount Objective = iota
	// MinimizeWeight minimizes their total weight.
	MinimizeWeight
)

func cost(a graph.Affinity, obj Objective) int64 {
	if obj == MinimizeCount {
		return 1
	}
	return a.Weight
}

// Target constrains the coalesced graph G_f in optimal conservative
// coalescing.
type Target int

const (
	// TargetNone places no constraint: optimal aggressive coalescing.
	TargetNone Target = iota
	// TargetKColorable requires G_f to be k-colorable (conservative
	// coalescing as in Theorem 3).
	TargetKColorable
	// TargetGreedy requires G_f to be greedy-k-colorable (the variant
	// heuristics actually maintain, and the optimistic setting).
	TargetGreedy
)

// Result is an optimal coalescing: the partition, the affinities it leaves
// uncoalesced, and their objective value.
type Result struct {
	P           *graph.Partition
	Uncoalesced []graph.Affinity
	Cost        int64
}

// The coalescing envelope: the instances OptimalCoalescingCtx can be run
// on where an answer is owed in bounded time (the batch engine's exact
// runner, the service's anytime exact member). Branch and bound is 2^|A|
// over the affinities with a colorability check per leaf, so an instance
// beyond these bounds is declined instead of holding a worker for hours.
const (
	MaxMoves    = 14
	MaxVertices = 48
)

// CheckEnvelope reports why g lies outside the coalescing envelope, or
// nil when it lies inside.
func CheckEnvelope(g *graph.Graph) error {
	if g.NumAffinities() > MaxMoves || g.N() > MaxVertices {
		return fmt.Errorf("instance outside exact envelope (moves %d > %d or vertices %d > %d)",
			g.NumAffinities(), MaxMoves, g.N(), MaxVertices)
	}
	return nil
}

// OptimalCoalescing computes, by branch and bound over the affinity list, a
// coalescing of g minimizing the objective over uncoalesced affinities,
// subject to the target constraint on the coalesced graph with k colors.
// Exponential in the number of affinities (2^|A| worst case); meant for
// reduction verification on small instances.
func OptimalCoalescing(g *graph.Graph, k int, target Target, obj Objective) Result {
	res, _ := OptimalCoalescingCtx(context.Background(), g, k, target, obj)
	return res
}

// OptimalCoalescingCtx is OptimalCoalescing with cooperative cancellation:
// when ctx is canceled or times out mid-search, it returns ctx's error and
// the best (not necessarily optimal) coalescing found so far.
func OptimalCoalescingCtx(ctx context.Context, g *graph.Graph, k int, target Target, obj Objective) (Result, error) {
	cancel := &canceler{ctx: ctx}
	affs := append([]graph.Affinity(nil), g.Affinities()...)
	graph.SortAffinities(affs)
	// Suffix cost sums for pruning.
	suffix := make([]int64, len(affs)+1)
	for i := len(affs) - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + cost(affs[i], obj)
	}
	feasible := func(p *graph.Partition) bool {
		q, _, err := graph.Quotient(g, p)
		if err != nil {
			return false
		}
		switch target {
		case TargetNone:
			return true
		case TargetKColorable:
			_, ok, err := KColorableCtx(ctx, q, k)
			if err != nil && cancel.err == nil {
				// The per-leaf search was cut off: latch the cancellation
				// so the caller cannot mistake an aborted run (which may
				// have rejected feasible partitions) for a proven optimum.
				cancel.err = err
			}
			return ok
		case TargetGreedy:
			return greedy.IsGreedyKColorable(q, k)
		}
		return false
	}
	var (
		bestCost int64 = suffix[0] + 1
		bestP    *graph.Partition
	)
	// The empty coalescing is always feasible when the instance is sane
	// (for TargetNone trivially; otherwise the caller passes a colorable g).
	empty := graph.NewPartition(g.N())
	if feasible(empty) {
		bestCost = suffix[0]
		bestP = empty.Clone()
	}
	var rec func(i int, p *graph.Partition, costSoFar int64)
	rec = func(i int, p *graph.Partition, costSoFar int64) {
		if cancel.stop() {
			return
		}
		if costSoFar >= bestCost {
			return
		}
		if i == len(affs) {
			if costSoFar < bestCost && feasible(p) {
				bestCost = costSoFar
				bestP = p.Clone()
			}
			return
		}
		a := affs[i]
		// Branch 1: coalesce a (if structurally possible).
		if graph.CanMerge(g, p, a.X, a.Y) {
			p2 := p.Clone()
			p2.Union(a.X, a.Y)
			rec(i+1, p2, costSoFar)
		}
		// Branch 2: give a up.
		rec(i+1, p, costSoFar+cost(a, obj))
	}
	rec(0, graph.NewPartition(g.N()), 0)
	if bestP == nil {
		// No feasible coalescing at all (e.g. g itself infeasible for the
		// target). Return the discrete partition with full cost.
		bestP = graph.NewPartition(g.N())
		bestCost = suffix[0]
	}
	_, unc := bestP.CoalescedAffinities(g)
	return Result{P: bestP, Uncoalesced: unc, Cost: bestCost}, cancel.err
}

// OptimalAggressive is OptimalCoalescing with no colorability constraint —
// the objective of the paper's Theorem 2 problem statement.
func OptimalAggressive(g *graph.Graph, obj Objective) Result {
	return OptimalCoalescing(g, 0, TargetNone, obj)
}

// OptimalDecoalesce solves the optimistic coalescing problem of Theorem 6
// exactly over affinity-generated refinements: given that all affinities of
// g can be aggressively coalesced, find a subset S of affinities to keep
// coalesced, maximal in objective value, such that the quotient by the
// partition generated by S is greedy-k-colorable. It returns the partition,
// the given-up affinities, and their total objective cost.
//
// When every aggressively-coalesced class has at most two vertices (as in
// the Theorem 6 gadget), affinity subsets enumerate all refinements of the
// aggressive partition, so the result is the true optimum of the paper's
// problem statement.
func OptimalDecoalesce(g *graph.Graph, k int, obj Objective) Result {
	return OptimalCoalescing(g, k, TargetGreedy, obj)
}
