// Package spill implements the spill-everywhere problem of the companion
// report "On the Complexity of Spill Everywhere under SSA Form" (Bouchez,
// Darte, Rastello, RR2007-42): given an instance whose register pressure
// exceeds the k available registers, choose variables to evict entirely to
// memory so that the residual instance is k-colorable, at minimum spill
// cost. It is the missing first half of the two-phase (spill then
// color/coalesce) allocation pipeline the source paper's introduction
// assumes has already run.
//
// Three instance shapes are supported, mirroring the report's complexity
// map:
//
//   - Interference graphs (this file + exact.go): evict vertices until the
//     graph is greedy-k-colorable — Greedy (furthest-first style eviction
//     of the highest-occupancy witness vertex), Incremental (identical
//     decisions, but the Chaitin elimination state is updated in place
//     after each eviction instead of re-derived from scratch), and Exact
//     (branch and bound over witness vertices, anytime and
//     context-cancelable).
//   - Interval programs (interval.go): straight-line live ranges, the
//     basic-block case the report proves polynomial; GreedyIntervals is
//     Belady's furthest-end eviction, optimal for unit costs.
//   - IR functions (func.go): spill-everywhere on the mini compiler IR
//     via ssa.SpillEverywhere, with liveness maintained incrementally
//     across spill rounds rather than recomputed to a fixpoint.
package spill

import (
	"fmt"
	"sort"
	"sync"

	"regcoal/internal/graph"
	"regcoal/internal/greedy"
)

// Plan is the outcome of a graph-level spiller: the evicted vertices, in
// eviction order, and a proper k-coloring of what survives.
type Plan struct {
	// Spilled lists the evicted vertices in eviction order.
	Spilled []graph.V
	// Cost is the total spill cost (one per vertex under unit costs).
	Cost int64
	// Coloring is a proper k-coloring of the residual graph; spilled
	// vertices hold NoColor.
	Coloring graph.Coloring
	// Rounds counts eviction rounds (== len(Spilled) for the greedy
	// spillers).
	Rounds int
	// Optimal marks a plan proven cost-minimal (Exact, search completed).
	Optimal bool
}

// Spills reports the number of evicted vertices.
func (p *Plan) Spills() int { return len(p.Spilled) }

// costOf reads the spill cost of v: costs[v], or 1 when costs is nil
// (unit costs).
func costOf(costs []int64, v graph.V) int64 {
	if costs == nil {
		return 1
	}
	return costs[v]
}

// checkInstance rejects instances no spill set can fix: a precoloring
// outside [0,k) or two interfering vertices pinned to the same color
// (precolored vertices are never spill candidates).
func checkInstance(f *graph.File, costs []int64) error {
	g, k := f.G, f.K
	if k <= 0 {
		return fmt.Errorf("spill: k=%d, need at least one register", k)
	}
	if costs != nil {
		if len(costs) != g.N() {
			return fmt.Errorf("spill: %d costs for %d vertices", len(costs), g.N())
		}
		// Non-positive costs would invalidate Exact's lower bound (and its
		// Optimal claim): a free or negative eviction makes "at least one
		// more core vertex" no longer a lower bound on the completion cost.
		for v, c := range costs {
			if c <= 0 {
				return fmt.Errorf("spill: vertex %d has non-positive cost %d", v, c)
			}
		}
	}
	for v := 0; v < g.N(); v++ {
		c, ok := g.Precolored(graph.V(v))
		if !ok {
			continue
		}
		if c >= k {
			return fmt.Errorf("spill: vertex %s precolored %d >= k=%d", g.Name(graph.V(v)), c, k)
		}
		var conflict error
		g.ForEachNeighbor(graph.V(v), func(w graph.V) {
			if cw, okw := g.Precolored(w); okw && cw == c && conflict == nil {
				conflict = fmt.Errorf("spill: interfering vertices %s and %s both precolored %d",
					g.Name(graph.V(v)), g.Name(w), c)
			}
		})
		if conflict != nil {
			return conflict
		}
	}
	return nil
}

// eliminateAlive runs Chaitin's simplification over the subgraph induced
// by alive and returns the non-precolored vertices it could not remove,
// in increasing order — the spill candidates of the witness core. An
// empty result means the induced subgraph is greedy-k-colorable. The
// elimination itself is greedy.EliminateMasked (the one shared
// implementation); the core set is unique by confluence, so any removal
// discipline yields the same candidates.
func eliminateAlive(g *graph.Graph, alive graph.Bits, k int) []graph.V {
	ar := graph.GetArena()
	defer ar.Release()
	_, remaining := greedy.EliminateMasked(ar, g, k, alive)
	if len(remaining) == 0 {
		return nil
	}
	return append([]graph.V(nil), remaining...)
}

// drainEliminate consumes the simplification worklist: pops a vertex,
// removes it if still eligible, and pushes neighbors whose degree drops
// below k. Degrees only decrease, so a popped vertex with deg < k is
// always safe to remove. It returns the emptied stack so pooled callers
// keep its grown capacity.
func drainEliminate(g *graph.Graph, k int, deg []int, removed, pinned []bool, stack []graph.V) []graph.V {
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if removed[v] || deg[v] >= k {
			continue
		}
		removed[v] = true
		g.ForEachNeighbor(v, func(w graph.V) {
			if removed[w] {
				return
			}
			deg[w]--
			if !pinned[w] && deg[w] == k-1 {
				stack = append(stack, w)
			}
		})
	}
	return stack
}

// Scratch is pooled solver state for the graph-level spillers: the alive
// and witness masks, the elimination degree/flag arrays, and the residual
// coloring worklists. Acquire one with AcquireScratch, run any number of
// Greedy/Incremental calls through it, and Release it; once the pool is
// warm for a graph size, steady-state runs do no heap allocation (see
// TestSpillZeroAllocSteadyState). A Scratch is single-goroutine state;
// concurrent spillers each acquire their own. The package-level Greedy
// and Incremental wrap this with a pooled scratch per call.
type Scratch struct {
	alive     graph.Bits
	witness   graph.Bits
	deg       []int
	removed   []bool
	pinned    []bool
	stack     []graph.V
	remaining []graph.V
	used      []bool // per-color flags of the select phase
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// AcquireScratch checks spiller scratch out of the pool; pair with
// Release.
func AcquireScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// Release returns the scratch to the pool. Plans filled by this scratch
// stay valid: they own their memory and do not alias pooled state.
func (s *Scratch) Release() { scratchPool.Put(s) }

// Greedy lowers the instance to a greedy-k-colorable one by furthest-first
// eviction: while the graph has a witness core (an induced subgraph of
// minimum degree >= k), evict the core vertex with the highest
// occupancy-to-cost ratio, then re-derive the core from scratch. costs is
// the per-vertex spill cost (nil = unit). Precolored vertices are never
// evicted.
func Greedy(f *graph.File, costs []int64) (*Plan, error) {
	s := AcquireScratch()
	defer s.Release()
	plan := new(Plan)
	if err := s.Greedy(f, costs, plan); err != nil {
		return nil, err
	}
	return plan, nil
}

// Greedy is the pooled form of the package-level Greedy: it runs the same
// algorithm into plan, reusing both the scratch's and the plan's storage.
func (s *Scratch) Greedy(f *graph.File, costs []int64, plan *Plan) error {
	if err := checkInstance(f, costs); err != nil {
		return err
	}
	g := f.G
	n := g.N()
	s.alive = graph.ReuseBits(s.alive, n)
	s.alive.Fill(n)
	plan.Spilled = plan.Spilled[:0]
	rounds := 0
	for {
		s.deriveCore(g, f.K)
		if len(s.remaining) == 0 {
			break
		}
		rounds++
		v := s.pickVictim(g, costs)
		s.alive.Clear(v)
		plan.Spilled = append(plan.Spilled, v)
	}
	return s.finishPlan(f, costs, rounds, plan)
}

// Incremental makes the same eviction decisions as Greedy but maintains
// the Chaitin elimination state across rounds: after evicting a victim it
// decrements its neighbors' degrees and resumes simplification from the
// previous fixpoint instead of re-deriving interference of the residual
// instance from scratch. Greedy elimination is confluent, so the
// resulting core — and therefore the spill set — is identical to
// Greedy's; only the work per round shrinks from O(V+E) to the size of
// the newly unlocked region.
func Incremental(f *graph.File, costs []int64) (*Plan, error) {
	s := AcquireScratch()
	defer s.Release()
	plan := new(Plan)
	if err := s.Incremental(f, costs, plan); err != nil {
		return nil, err
	}
	return plan, nil
}

// Incremental is the pooled form of the package-level Incremental.
func (s *Scratch) Incremental(f *graph.File, costs []int64, plan *Plan) error {
	if err := checkInstance(f, costs); err != nil {
		return err
	}
	g, k := f.G, f.K
	n := g.N()
	s.alive = graph.ReuseBits(s.alive, n)
	s.alive.Fill(n)
	s.deg = graph.ReuseSlice(s.deg, n)
	s.removed = graph.ReuseSlice(s.removed, n)
	s.pinned = graph.ReuseSlice(s.pinned, n)
	s.stack = s.stack[:0]
	for v := 0; v < n; v++ {
		s.deg[v] = g.Degree(graph.V(v))
		_, s.pinned[v] = g.Precolored(graph.V(v))
		if !s.pinned[v] && s.deg[v] < k {
			s.stack = append(s.stack, graph.V(v))
		}
	}
	s.stack = drainEliminate(g, k, s.deg, s.removed, s.pinned, s.stack)

	plan.Spilled = plan.Spilled[:0]
	rounds := 0
	for {
		s.remaining = s.remaining[:0]
		for v := 0; v < n; v++ {
			if s.alive.Get(graph.V(v)) && !s.removed[v] && !s.pinned[v] {
				s.remaining = append(s.remaining, graph.V(v))
			}
		}
		if len(s.remaining) == 0 {
			break
		}
		rounds++
		v := s.pickVictim(g, costs)
		s.alive.Clear(v)
		// Mark the victim removed so the resumed elimination can neither
		// re-remove it nor decrement its neighbors a second time.
		s.removed[v] = true
		plan.Spilled = append(plan.Spilled, v)
		// The eviction lowers neighbor degrees exactly like a removal;
		// resume simplification from the vertices it unlocked.
		s.stack = s.stack[:0]
		g.ForEachNeighbor(v, func(w graph.V) {
			if s.removed[w] {
				return
			}
			s.deg[w]--
			if !s.pinned[w] && s.deg[w] == k-1 {
				s.stack = append(s.stack, w)
			}
		})
		s.stack = drainEliminate(g, k, s.deg, s.removed, s.pinned, s.stack)
	}
	return s.finishPlan(f, costs, rounds, plan)
}

// deriveCore re-derives the witness core of the alive subgraph from
// scratch (the Greedy discipline), leaving it in s.remaining. The
// elimination is greedy.EliminateMasked on pooled arena scratch; only
// the Incremental spiller keeps its own persistent elimination state
// (drainEliminate), because resuming from the previous fixpoint is its
// entire point.
func (s *Scratch) deriveCore(g *graph.Graph, k int) {
	ar := graph.GetArena()
	_, remaining := greedy.EliminateMasked(ar, g, k, s.alive)
	s.remaining = append(s.remaining[:0], remaining...)
	ar.Release()
}

// pickVictim chooses the eviction victim among the witness core
// (s.remaining): the vertex with the highest witness-degree-to-cost
// ratio (the variable whose eviction relieves the most pressure per unit
// of spill cost), ties broken toward the smallest vertex id. The witness
// is the core plus the alive precolored vertices it leans on; occupancy
// is a word-parallel popcount of N(v) ∩ witness.
func (s *Scratch) pickVictim(g *graph.Graph, costs []int64) graph.V {
	s.witness = graph.ReuseBits(s.witness, g.N())
	for _, v := range s.remaining {
		s.witness.Set(v)
	}
	for v := 0; v < g.N(); v++ {
		if s.alive.Get(graph.V(v)) {
			if _, ok := g.Precolored(graph.V(v)); ok {
				s.witness.Set(graph.V(v))
			}
		}
	}
	best := graph.V(-1)
	bestDeg := 0
	for _, v := range s.remaining {
		wdeg := g.MaskedDegree(v, s.witness)
		// Maximize wdeg/cost by cross-multiplication; remaining is sorted,
		// so strict improvement keeps the smallest id on ties.
		if best == -1 || int64(wdeg)*costOf(costs, best) > int64(bestDeg)*costOf(costs, v) {
			best, bestDeg = v, wdeg
		}
	}
	return best
}

// finishPlan colors the residual (alive) subgraph through the mask and
// assembles the Plan, reusing the plan's storage; every graph-level
// spiller, the exact search included, finishes here. The elimination is
// greedy.EliminateMasked — the one shared implementation of the
// smallest-id-first discipline — and the select phase mirrors
// greedy.Select (unbiased), so the coloring is the one greedy.Color
// gives the induced residual subgraph (pinned by the differential tests)
// without materializing that subgraph.
func (s *Scratch) finishPlan(f *graph.File, costs []int64, rounds int, plan *Plan) error {
	g, k := f.G, f.K
	n := g.N()
	plan.Rounds = rounds
	plan.Optimal = false
	plan.Cost = 0
	for _, v := range plan.Spilled {
		plan.Cost += costOf(costs, v)
	}
	plan.Coloring = graph.Coloring(graph.ReuseSlice([]int(plan.Coloring), n))
	col := plan.Coloring
	for i := range col {
		col[i] = graph.NoColor
	}

	ar := graph.GetArena()
	defer ar.Release()
	order, remaining := greedy.EliminateMasked(ar, g, k, s.alive)
	if len(remaining) > 0 {
		return fmt.Errorf("spill: residual graph not greedy-%d-colorable after %d evictions", k, len(plan.Spilled))
	}

	// Masked Select: pinned skeleton first, then reverse elimination
	// order, lowest free color (greedy.Select, unbiased).
	for v := 0; v < n; v++ {
		if !s.alive.Get(graph.V(v)) {
			continue
		}
		if c, ok := g.Precolored(graph.V(v)); ok {
			col[v] = c
		}
	}
	s.used = graph.ReuseSlice(s.used, k)
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		for c := range s.used {
			s.used[c] = false
		}
		g.ForEachNeighbor(v, func(w graph.V) {
			if s.alive.Get(w) && col[w] != graph.NoColor && col[w] < k {
				s.used[col[w]] = true
			}
		})
		chosen := -1
		for c := 0; c < k; c++ {
			if !s.used[c] {
				chosen = c
				break
			}
		}
		if chosen == -1 {
			return fmt.Errorf("spill: residual graph not greedy-%d-colorable after %d evictions", k, len(plan.Spilled))
		}
		col[v] = chosen
	}
	return nil
}

// SortedSpills returns the plan's spill set sorted by vertex id (the
// eviction order is preserved in Spilled itself).
func (p *Plan) SortedSpills() []graph.V {
	out := append([]graph.V(nil), p.Spilled...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
