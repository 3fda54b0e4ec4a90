package regalloc

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"regcoal/internal/graph"
)

// IRC implements iterated register coalescing (George & Appel, TOPLAS
// 1996) — the allocator framework the paper's introduction describes:
// simplification, conservative coalescing (Briggs' test between two
// temporaries, George's test against precolored nodes), freezing, and
// optimistic potential spills, driven by interleaved worklists over a
// mutable interference graph.
//
// This is the classical formulation with explicit worklists and move sets,
// operating on a graph.Graph input; it returns the coloring of the
// original vertices (spilled vertices get NoColor), the coalescing
// partition, and per-move outcomes.
//
// The evolving graph is held as a private bitset matrix plus append-only
// adjacency lists (mirroring graph.Graph's hybrid layout): adjacency tests
// are one word probe, node worklists and move sets are bitsets popped
// smallest-first word-parallelly, and the Briggs/George conservative tests
// scan neighborhoods a machine word at a time under a liveness mask
// instead of walking per-vertex map copies.
type IRC struct {
	k int
	g *graph.Graph

	// adjacency of the evolving graph (indexed by original vertex; merged
	// vertices alias to their representative).
	n       int
	stride  int      // words per bitset row
	adj     []uint64 // n rows of stride words
	adjList [][]graph.V
	degree  []int

	precolored []bool
	alias      []graph.V // -1 = representative

	// node worklists; a vertex is in exactly one of these sets (or on the
	// select stack / coalesced). removed = onStack ∪ coalescedNodes is the
	// complement of the liveness mask the word-parallel tests filter with.
	simplifyWorklist graph.Bits
	freezeWorklist   graph.Bits
	spillWorklist    graph.Bits
	coalescedNodes   graph.Bits
	onStack          graph.Bits
	removed          graph.Bits
	selectStack      []graph.V

	// move management. Moves are indices into moves[]; the five
	// disposition sets are bitsets over those indices.
	moves            []graph.Affinity
	moveList         [][]int
	worklistMoves    graph.Bits
	activeMoves      graph.Bits
	coalescedMoves   graph.Bits
	constrainedMoves graph.Bits
	frozenMoves      graph.Bits

	// colorUsed is the select-phase scratch (one flag per color).
	colorUsed []bool
}

// IRCResult is the outcome of an IRC run.
type IRCResult struct {
	// Coloring of the original vertices (NoColor = spilled).
	Coloring graph.Coloring
	// Spilled lists actual spills.
	Spilled []graph.V
	// P is the coalescing partition realized by the run.
	P *graph.Partition
	// CoalescedMoves, ConstrainedMoves, FrozenMoves count move outcomes.
	CoalescedMoves, ConstrainedMoves, FrozenMoves int
	// CoalescedWeight is the weight of moves whose endpoints merged.
	CoalescedWeight int64
}

// NewIRC prepares a fresh (unpooled) IRC run over g with k colors. The
// graph is not modified. Hot paths that run IRC repeatedly should prefer
// AcquireIRC/Release, which recycle the solver state through a pool.
func NewIRC(g *graph.Graph, k int) *IRC {
	a := new(IRC)
	a.Reset(g, k)
	return a
}

// ircPool recycles IRC solver state. Only the struct pointer crosses the
// pool boundary, so acquire/release itself never allocates; the struct
// carries its worklists, bitset matrix, and adjacency rows across runs.
var ircPool = sync.Pool{New: func() any { return new(IRC) }}

// AcquireIRC returns a pooled IRC ready to Run on g with k colors; pair
// it with Release. After the pool is warm for a graph size, repeated
// acquire/run/release cycles do no steady-state heap allocation (see
// TestIRCZeroAllocSteadyState).
func AcquireIRC(g *graph.Graph, k int) *IRC {
	a := ircPool.Get().(*IRC)
	a.Reset(g, k)
	return a
}

// Release returns the solver state to the pool. The IRC must not be used
// afterwards. Results from Run/RunInto stay valid: they own their
// memory and do not alias pooled state.
func (a *IRC) Release() {
	a.g = nil // do not pin the instance graph in the pool
	ircPool.Put(a)
}

// Reset reinitializes the solver for a run over g with k colors, reusing
// every buffer whose capacity allows — the Reset(g)-style lifecycle of
// the pooled solve path. The evolving graph is seeded by copying g's
// bitset rows and adjacency slices directly (no per-edge insertion).
func (a *IRC) Reset(g *graph.Graph, k int) {
	n := g.N()
	a.k, a.g, a.n = k, g, n
	a.stride = (n + 63) >> 6
	// adj, degree, and alias are fully overwritten below (the row copies
	// cover all n*stride words), so they reuse capacity without the
	// zeroing memset ReuseSlice would do — on a dense instance adj is the
	// largest buffer of the pooled hot path.
	a.adj = resize(a.adj, n*a.stride)
	a.adjList = graph.ReuseRows(a.adjList, n)
	a.degree = resize(a.degree, n)
	a.precolored = graph.ReuseSlice(a.precolored, n)
	a.alias = resize(a.alias, n)
	a.simplifyWorklist = graph.ReuseBits(a.simplifyWorklist, n)
	a.freezeWorklist = graph.ReuseBits(a.freezeWorklist, n)
	a.spillWorklist = graph.ReuseBits(a.spillWorklist, n)
	a.coalescedNodes = graph.ReuseBits(a.coalescedNodes, n)
	a.onStack = graph.ReuseBits(a.onStack, n)
	a.removed = graph.ReuseBits(a.removed, n)
	a.selectStack = a.selectStack[:0]
	for v := 0; v < n; v++ {
		a.alias[v] = -1
		if _, ok := g.Precolored(graph.V(v)); ok {
			a.precolored[v] = true
		}
		copy(a.adjRow(graph.V(v)), g.BitsetNeighbors(graph.V(v)))
		a.adjList[v] = g.NeighborsInto(a.adjList[v], graph.V(v))
		a.degree[v] = g.Degree(graph.V(v))
	}
	a.moves = append(a.moves[:0], g.Affinities()...)
	graph.SortAffinities(a.moves)
	m := len(a.moves)
	a.moveList = graph.ReuseRows(a.moveList, n)
	a.worklistMoves = graph.ReuseBits(a.worklistMoves, m)
	a.activeMoves = graph.ReuseBits(a.activeMoves, m)
	a.coalescedMoves = graph.ReuseBits(a.coalescedMoves, m)
	a.constrainedMoves = graph.ReuseBits(a.constrainedMoves, m)
	a.frozenMoves = graph.ReuseBits(a.frozenMoves, m)
	for i, mv := range a.moves {
		a.moveList[mv.X] = append(a.moveList[mv.X], i)
		a.moveList[mv.Y] = append(a.moveList[mv.Y], i)
		a.worklistMoves.Set(graph.V(i))
	}
}

// resize returns s with length n, reusing capacity without zeroing —
// for buffers the caller fully overwrites before reading.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// adjRow returns v's bitset row of the evolving graph.
func (a *IRC) adjRow(v graph.V) graph.Bits {
	off := int(v) * a.stride
	return graph.Bits(a.adj[off : off+a.stride])
}

// hasAdj is the O(1) adjacency probe.
func (a *IRC) hasAdj(u, v graph.V) bool {
	return a.adjRow(u).Get(v)
}

func (a *IRC) find(v graph.V) graph.V {
	for a.alias[v] != -1 {
		v = a.alias[v]
	}
	return v
}

func (a *IRC) moveRelated(v graph.V) bool {
	for _, m := range a.moveList[v] {
		if a.worklistMoves.Get(graph.V(m)) || a.activeMoves.Get(graph.V(m)) {
			return true
		}
	}
	return false
}

// adjacent iterates over the live neighbors of v, in insertion order
// (original edges sorted, combine-added edges after).
func (a *IRC) adjacent(v graph.V, fn func(w graph.V)) {
	for _, w := range a.adjList[v] {
		if !a.removed.Get(w) {
			fn(w)
		}
	}
}

// makeWorklists distributes the non-precolored vertices.
func (a *IRC) makeWorklists() {
	for v := 0; v < a.n; v++ {
		u := graph.V(v)
		if a.precolored[u] {
			continue
		}
		switch {
		case a.degree[u] >= a.k:
			a.spillWorklist.Set(u)
		case a.moveRelated(u):
			a.freezeWorklist.Set(u)
		default:
			a.simplifyWorklist.Set(u)
		}
	}
}

func (a *IRC) enableMoves(v graph.V) {
	consider := func(u graph.V) {
		for _, m := range a.moveList[u] {
			if a.activeMoves.Get(graph.V(m)) {
				a.activeMoves.Clear(graph.V(m))
				a.worklistMoves.Set(graph.V(m))
			}
		}
	}
	consider(v)
	a.adjacent(v, consider)
}

func (a *IRC) decrementDegree(v graph.V) {
	a.degree[v]--
	if a.degree[v] == a.k-1 && !a.precolored[v] {
		a.enableMoves(v)
		a.spillWorklist.Clear(v)
		if a.moveRelated(v) {
			a.freezeWorklist.Set(v)
		} else {
			a.simplifyWorklist.Set(v)
		}
	}
}

func (a *IRC) simplify() {
	v := a.simplifyWorklist.First()
	a.simplifyWorklist.Clear(v)
	a.selectStack = append(a.selectStack, v)
	a.onStack.Set(v)
	a.removed.Set(v)
	a.adjacent(v, a.decrementDegree)
}

func (a *IRC) addEdge(u, v graph.V) {
	if u == v || a.hasAdj(u, v) {
		return
	}
	a.adjRow(u).Set(v)
	a.adjRow(v).Set(u)
	a.adjList[u] = append(a.adjList[u], v)
	a.adjList[v] = append(a.adjList[v], u)
	a.degree[u]++
	a.degree[v]++
}

// briggsOK is Briggs' test on representatives u, v: fewer than k
// significant neighbors of the would-be merged node. The neighborhood
// union is scanned a word at a time — (row(u) | row(v)) &^ removed — and
// the "common neighbor loses a degree" adjustment is two bit probes.
func (a *IRC) briggsOK(u, v graph.V) bool {
	rowU, rowV := a.adjRow(u), a.adjRow(v)
	significant := 0
	for i := 0; i < a.stride; i++ {
		m := (rowU[i] | rowV[i]) &^ a.removed[i]
		for m != 0 {
			bit := m & -m
			m &^= bit
			w := graph.V(i<<6 + bits.TrailingZeros64(bit))
			deg := a.degree[w]
			if rowU[i]&bit != 0 && rowV[i]&bit != 0 {
				deg--
			}
			if a.precolored[w] || deg >= a.k {
				significant++
				if significant >= a.k {
					return false
				}
			}
		}
	}
	return significant < a.k
}

// georgeOK is George's test for merging u into the (typically precolored)
// node v: every live neighbor of u must be insignificant, or already a
// neighbor of v.
func (a *IRC) georgeOK(u, v graph.V) bool {
	rowU := a.adjRow(u)
	for i := 0; i < a.stride; i++ {
		m := rowU[i] &^ a.removed[i]
		for m != 0 {
			bit := m & -m
			m &^= bit
			t := graph.V(i<<6 + bits.TrailingZeros64(bit))
			if a.degree[t] >= a.k && !a.precolored[t] && !a.hasAdj(t, v) {
				return false
			}
			if a.precolored[t] && !a.hasAdj(t, v) && t != v {
				return false
			}
		}
	}
	return true
}

func (a *IRC) addWorklist(v graph.V) {
	if !a.precolored[v] && !a.moveRelated(v) && a.degree[v] < a.k {
		a.freezeWorklist.Clear(v)
		a.simplifyWorklist.Set(v)
	}
}

func (a *IRC) combine(u, v graph.V) {
	a.freezeWorklist.Clear(v)
	a.spillWorklist.Clear(v)
	a.coalescedNodes.Set(v)
	a.removed.Set(v)
	a.alias[v] = u
	a.moveList[u] = append(a.moveList[u], a.moveList[v]...)
	a.adjacent(v, func(t graph.V) {
		a.addEdge(t, u)
		a.decrementDegree(t)
	})
	if a.degree[u] >= a.k && a.freezeWorklist.Get(u) {
		a.freezeWorklist.Clear(u)
		a.spillWorklist.Set(u)
	}
}

func (a *IRC) coalesce() {
	m := a.worklistMoves.First()
	a.worklistMoves.Clear(m)
	x := a.find(a.moves[m].X)
	y := a.find(a.moves[m].Y)
	u, v := x, y
	if a.precolored[y] {
		u, v = y, x
	}
	switch {
	case u == v:
		a.coalescedMoves.Set(m)
		a.addWorklist(u)
	case a.precolored[v] || a.hasAdj(u, v):
		a.constrainedMoves.Set(m)
		a.addWorklist(u)
		a.addWorklist(v)
	case (a.precolored[u] && a.georgeOK(v, u)) ||
		(!a.precolored[u] && a.briggsOK(u, v)):
		a.coalescedMoves.Set(m)
		a.combine(u, v)
		a.addWorklist(u)
	default:
		a.activeMoves.Set(m)
	}
}

func (a *IRC) freezeMoves(u graph.V) {
	for _, m := range a.moveList[u] {
		mi := graph.V(m)
		if !a.activeMoves.Get(mi) && !a.worklistMoves.Get(mi) {
			continue
		}
		a.activeMoves.Clear(mi)
		a.worklistMoves.Clear(mi)
		a.frozenMoves.Set(mi)
		x := a.find(a.moves[m].X)
		y := a.find(a.moves[m].Y)
		other := y
		if y == u {
			other = x
		}
		if !a.moveRelated(other) && a.degree[other] < a.k && !a.precolored[other] {
			a.freezeWorklist.Clear(other)
			a.simplifyWorklist.Set(other)
		}
	}
}

func (a *IRC) freeze() {
	v := a.freezeWorklist.First()
	a.freezeWorklist.Clear(v)
	a.simplifyWorklist.Set(v)
	a.freezeMoves(v)
}

func (a *IRC) selectSpill() {
	// Cheapest heuristic: highest current degree (most constraining),
	// ties toward the smallest id — which is the order ForEach visits.
	var best graph.V = -1
	a.spillWorklist.ForEach(func(v graph.V) {
		if best == -1 || a.degree[v] > a.degree[best] {
			best = v
		}
	})
	a.spillWorklist.Clear(best)
	a.simplifyWorklist.Set(best)
	a.freezeMoves(best)
}

// Run executes the IRC main loop and the final color assignment into a
// fresh result.
func (a *IRC) Run() *IRCResult { return a.RunInto(new(IRCResult)) }

// RunInto executes the IRC main loop and writes the outcome into res,
// reusing res's coloring, spill list, and partition storage — the
// zero-allocation variant of Run for callers that recycle results along
// with the pooled solver state. It returns res.
func (a *IRC) RunInto(res *IRCResult) *IRCResult {
	a.makeWorklists()
loop:
	for {
		switch {
		case !a.simplifyWorklist.Empty():
			a.simplify()
		case !a.worklistMoves.Empty():
			a.coalesce()
		case !a.freezeWorklist.Empty():
			a.freeze()
		case !a.spillWorklist.Empty():
			a.selectSpill()
		default:
			break loop
		}
	}
	// Assign colors: precolored first, then pop the select stack.
	res.Coloring = graph.Coloring(graph.ReuseSlice([]int(res.Coloring), a.n))
	col := res.Coloring
	for v := 0; v < a.n; v++ {
		col[v] = graph.NoColor
		if a.precolored[v] {
			c, _ := a.g.Precolored(graph.V(v))
			col[v] = c
		}
	}
	res.Spilled = res.Spilled[:0]
	a.colorUsed = graph.ReuseSlice(a.colorUsed, a.k)
	used := a.colorUsed
	for i := len(a.selectStack) - 1; i >= 0; i-- {
		v := a.selectStack[i]
		for c := range used {
			used[c] = false
		}
		for _, w := range a.adjList[v] {
			rw := a.find(w)
			if col[rw] != graph.NoColor && col[rw] < a.k {
				used[col[rw]] = true
			}
		}
		assigned := false
		for c := 0; c < a.k; c++ {
			if !used[c] {
				col[v] = c
				assigned = true
				break
			}
		}
		if !assigned {
			res.Spilled = append(res.Spilled, v)
		}
	}
	// Coalesced nodes take their representative's color.
	if res.P == nil {
		res.P = graph.NewPartition(a.n)
	} else {
		res.P.Reset(a.n)
	}
	p := res.P
	a.coalescedNodes.ForEach(func(v graph.V) {
		p.Union(a.find(v), v)
		col[v] = col[a.find(v)]
	})
	// slices.Sort, unlike sort.Slice, does not box — the zero-alloc path
	// stays clean.
	slices.Sort(res.Spilled)
	spilled := res.Spilled
	res.CoalescedMoves = a.coalescedMoves.Count()
	res.ConstrainedMoves = a.constrainedMoves.Count()
	res.FrozenMoves = a.frozenMoves.Count()
	res.CoalescedWeight = 0
	a.coalescedMoves.ForEach(func(m graph.V) {
		res.CoalescedWeight += a.moves[m].Weight
	})
	// A spilled representative invalidates its class's colors.
	for _, s := range spilled {
		for v := 0; v < a.n; v++ {
			if p.Same(graph.V(v), s) {
				col[v] = graph.NoColor
			}
		}
	}
	return res
}

// Check validates the result against the original graph: interfering
// vertices that both got colors must differ, coalesced classes agree, and
// precolored vertices keep their pins.
func (r *IRCResult) Check(g *graph.Graph, k int) error {
	for _, e := range g.Edges() {
		a, b := r.Coloring[e[0]], r.Coloring[e[1]]
		if a != graph.NoColor && a == b {
			return fmt.Errorf("irc: interfering %d and %d share color %d", int(e[0]), int(e[1]), a)
		}
	}
	for v := 0; v < g.N(); v++ {
		if c, ok := g.Precolored(graph.V(v)); ok && r.Coloring[v] != c {
			return fmt.Errorf("irc: precolored %d lost its pin", v)
		}
		if r.Coloring[v] >= k {
			return fmt.Errorf("irc: color %d out of range", r.Coloring[v])
		}
	}
	if !r.P.CompatibleWith(g) {
		return fmt.Errorf("irc: coalescing partition incompatible")
	}
	return nil
}
