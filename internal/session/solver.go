package session

// The incremental solver. A session solution is defined per connected
// component of the alive working graph (connectivity over interference
// edges AND affinities: a move can merge across an interference gap, so
// components are independent only when neither crosses). Every component
// is solved by the same deterministic member set — ChordalIncremental
// (via ChordalProgressive) where the component is chordal, the
// conservative briggs+george rule, and optimistic de-coalescing — with
// the best answer picked by the portfolio ordering, coalesce.Compare
// (colorable first, then coalesced weight, then fewer remaining moves;
// earlier member wins ties). Because "fresh" and "incremental" are the same per-component
// function over the same induced instances, reassembling reused or
// memoized component results is exactly equal to a fresh solve — the
// property the randomized edit-script differential suite pins.

import (
	"slices"

	"regcoal/internal/coalesce"
	"regcoal/internal/graph"
	"regcoal/internal/greedy"
)

// fp is a 128-bit content fingerprint of one component's induced
// instance (vertex count, k, edges, affinities with weights, all in
// sorted local numbering) — the memo key. Two lanes: FNV-1a and a
// splitmix-style mixer.
type fp struct{ a, b uint64 }

func (h *fp) mix(x uint64) {
	h.a ^= x
	h.a *= 1099511628211
	h.b += x + 0x9e3779b97f4a7c15
	h.b ^= h.b >> 29
	h.b *= 0xbf58476d1ce4e5b9
	h.b ^= h.b >> 32
}

// compResult is one component's solution in local (sorted-by-session-id)
// numbering. Immutable once built; shared by the memo and by successive
// assembled solves.
type compResult struct {
	colorable  bool
	nclasses   int
	coalescedW int64
	remainingW int64

	coalescedMoves int
	remainingMoves int
	strategy       string

	classOf []int // dense class index per local vertex, by smallest member
	color   []int // register per local vertex, or -1
}

// compSet is a solve's component decomposition: concatenated sorted
// vertex lists with offsets, plus each component's result. Buffers are
// session-owned and reused across solves.
type compSet struct {
	verts []graph.V
	offs  []int32
	res   []*compResult
}

func (c *compSet) reset() {
	c.verts = c.verts[:0]
	c.offs = append(c.offs[:0], 0)
	c.res = c.res[:0]
}

func (c *compSet) push(vs []graph.V, r *compResult) {
	c.verts = append(c.verts, vs...)
	c.offs = append(c.offs, int32(len(c.verts)))
	c.res = append(c.res, r)
}

func (c *compSet) comp(i int) []graph.V { return c.verts[c.offs[i]:c.offs[i+1]] }

// resolve brings s.cur up to date with the working graph. Caller holds
// s.mu. The steady state (warm session, memo hits) allocates nothing:
// all scratch comes from a pooled graph.Arena or session-owned buffers.
func (s *Session) resolve() {
	if s.solved && len(s.dirty) == 0 && !s.allDirty {
		// Nothing changed: keep s.cur — including the Path label of the
		// last real solve, so a render right after an apply still reports
		// how that solve was obtained.
		s.cur.Version = s.version
		if s.metrics != nil {
			s.metrics.PathCached.Add(1)
		}
		return
	}
	n := s.g.N()
	ar := graph.GetArena()
	defer ar.Release()

	full := !s.solved || s.allDirty
	visited := ar.Bools(n)
	if !full && s.bfsAffected(ar, visited) > budget {
		full = true
	}

	next := &s.next
	next.reset()
	if full {
		s.decompose(ar, next, nil)
	} else {
		// Reuse every previous component untouched by the affected
		// region. A component holding a visited or now-dead vertex is
		// recomputed; the dirty flood-fill visits whole components, so
		// the decomposition below covers exactly the affected ones.
		for ci := 0; ci < len(s.comps.res); ci++ {
			vs := s.comps.comp(ci)
			reusable := true
			for _, v := range vs {
				if visited[v] || !s.alive[v] {
					reusable = false
					break
				}
			}
			if reusable {
				next.push(vs, s.comps.res[ci])
			}
		}
		s.decompose(ar, next, visited)
	}

	local := ar.Ints(n)
	misses := 0
	for ci := 0; ci < len(next.res); ci++ {
		if next.res[ci] != nil {
			continue
		}
		vs := next.comp(ci)
		key := s.fingerprint(vs, local)
		if r, ok := s.memo[key]; ok {
			next.res[ci] = r
			continue
		}
		r := s.solveComponent(vs, local)
		if len(s.memo) >= memoCap {
			clear(s.memo)
		}
		s.memo[key] = r
		next.res[ci] = r
		misses++
	}

	s.assemble(ar, next)
	s.comps, s.next = s.next, s.comps

	for _, v := range s.dirty {
		s.dirtyIn[v] = false
	}
	s.dirty = s.dirty[:0]
	s.allDirty = false
	s.solved = true

	switch {
	case full:
		s.cur.Path = PathFresh
	case misses > 0:
		s.cur.Path = PathIncremental
	default:
		s.cur.Path = PathMemo
	}
	if s.metrics != nil {
		switch s.cur.Path {
		case PathFresh:
			s.metrics.PathFresh.Add(1)
		case PathIncremental:
			s.metrics.PathIncremental.Add(1)
		default:
			s.metrics.PathMemo.Add(1)
		}
	}
}

// bfsAffected flood-fills from the alive dirty vertices over both
// adjacencies, marking visited; returns the region size. The region is
// closed under connectivity: it is a union of whole components.
func (s *Session) bfsAffected(ar *graph.Arena, visited []bool) int {
	queue := ar.Vs(s.g.N())
	for _, v := range s.dirty {
		if s.alive[v] && !visited[v] {
			visited[v] = true
			queue = append(queue, v)
		}
	}
	count := 0
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		count++
		s.nbuf = s.g.NeighborsInto(s.nbuf, v)
		for _, w := range s.nbuf {
			if !visited[w] {
				visited[w] = true
				queue = append(queue, w)
			}
		}
		for _, w := range s.affNbr[v] {
			if !visited[w] {
				visited[w] = true
				queue = append(queue, w)
			}
		}
	}
	return count
}

// decompose appends the connected components of the alive subgraph
// (restricted to the given mask when non-nil) to dst, each with a nil
// result and its vertex list sorted ascending. Components come out in
// order of smallest member because the outer scan ascends.
func (s *Session) decompose(ar *graph.Arena, dst *compSet, restrict []bool) {
	n := s.g.N()
	seen := ar.Bools(n)
	queue := ar.Vs(n)
	for v0 := graph.V(0); int(v0) < n; v0++ {
		if !s.alive[v0] || seen[v0] || (restrict != nil && !restrict[v0]) {
			continue
		}
		queue = queue[:0]
		queue = append(queue, v0)
		seen[v0] = true
		start := len(dst.verts)
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			dst.verts = append(dst.verts, v)
			s.nbuf = s.g.NeighborsInto(s.nbuf, v)
			for _, w := range s.nbuf {
				if !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
			for _, w := range s.affNbr[v] {
				if !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
		slices.Sort(dst.verts[start:])
		dst.offs = append(dst.offs, int32(len(dst.verts)))
		dst.res = append(dst.res, nil)
	}
}

// fingerprint hashes one component's induced instance in local
// numbering. local is n-sized scratch; only entries for vs are written,
// so stale entries from other components are harmless.
func (s *Session) fingerprint(vs []graph.V, local []int) fp {
	h := fp{a: 14695981039346656037, b: 0x6a09e667f3bcc909}
	h.mix(uint64(len(vs)))
	h.mix(uint64(s.k))
	for i, v := range vs {
		local[v] = i
	}
	for _, v := range vs {
		h.mix(^uint64(0)) // vertex-record separator
		s.nbuf = s.g.NeighborsInto(s.nbuf, v)
		for _, w := range s.nbuf {
			if w > v {
				h.mix(uint64(local[w]))
			}
		}
		h.mix(^uint64(1)) // edge/affinity separator
		for _, w := range s.affNbr[v] {
			if w > v {
				h.mix(uint64(local[w]))
				h.mix(uint64(s.aff[pairKey(v, w)]))
			}
		}
	}
	return h
}

// solveComponent builds the induced instance of vs in local numbering
// and solves it with the deterministic member set. Only runs on memo
// misses, so its allocations are off the steady-state path.
func (s *Session) solveComponent(vs []graph.V, local []int) *compResult {
	m := len(vs)
	for i, v := range vs {
		local[v] = i
	}
	cg := graph.New(m)
	for _, v := range vs {
		for _, w := range s.g.Neighbors(v) {
			if w > v {
				cg.AddEdge(graph.V(local[v]), graph.V(local[w]))
			}
		}
	}
	// Affinities enter in ascending (x, y) order — the canonical sorted
	// order — so the solve is independent of the session's edit history.
	for _, v := range vs {
		for _, w := range s.affNbr[v] {
			if w > v {
				cg.AddAffinity(graph.V(local[v]), graph.V(local[w]), s.aff[pairKey(v, w)])
			}
		}
	}
	cg.Freeze()

	// ChordalIncremental first (the paper's tractable case); the
	// conservative and optimistic members cover the non-chordal
	// fallback. Declining with ErrNotChordal is the documented contract:
	// a wrong answer never leaves ChordalProgressive.
	var best *coalesce.Result
	bestName := ""
	if res, err := coalesce.ChordalProgressive(cg, s.k); err == nil {
		best, bestName = res, "chordal-inc"
	}
	if res := coalesce.Conservative(cg, s.k, coalesce.TestBriggsGeorge); best == nil || coalesce.Compare(res, best) > 0 {
		best, bestName = res, "briggs+george"
	}
	if res := coalesce.Optimistic(cg, s.k); coalesce.Compare(res, best) > 0 {
		best, bestName = res, "optimistic"
	}
	if bestName == "chordal-inc" && s.metrics != nil {
		s.metrics.ChordalWins.Add(1)
	}

	r := &compResult{
		colorable:      best.Colorable,
		coalescedW:     best.CoalescedWeight,
		remainingW:     best.RemainingWeight,
		coalescedMoves: len(best.Coalesced),
		remainingMoves: len(best.Remaining),
		strategy:       bestName,
		classOf:        make([]int, m),
		color:          make([]int, m),
	}
	classIdx := make(map[graph.V]int, m)
	for i := 0; i < m; i++ {
		root := best.P.Find(graph.V(i))
		idx, ok := classIdx[root]
		if !ok {
			idx = len(classIdx)
			classIdx[root] = idx
		}
		r.classOf[i] = idx
	}
	r.nclasses = len(classIdx)
	for i := range r.color {
		r.color[i] = graph.NoColor
	}
	if best.Colorable {
		if q, old2new, err := graph.Quotient(cg, best.P); err == nil {
			if qcol, ok := greedy.Color(q, s.k); ok {
				copy(r.color, qcol.Lift(old2new))
			}
		}
	}
	return r
}

// assemble writes the combined solution into s.cur, components in order
// of smallest member (dense class ids follow that order).
func (s *Session) assemble(ar *graph.Arena, cs *compSet) {
	n := s.g.N()
	nc := len(cs.res)
	order := ar.Ints(nc)
	for i := range order {
		order[i] = i
	}
	// Insertion sort by smallest member: the set is a merge of two
	// already-sorted runs (reused comps, then newly decomposed ones), so
	// this is near-linear — and closure-free for the zero-alloc path.
	for i := 1; i < nc; i++ {
		ci := order[i]
		key := cs.verts[cs.offs[ci]]
		j := i
		for j > 0 && cs.verts[cs.offs[order[j-1]]] > key {
			order[j] = order[j-1]
			j--
		}
		order[j] = ci
	}

	s.cur.Coloring = growInts(s.cur.Coloring, n)
	s.cur.ClassID = growInts(s.cur.ClassID, n)
	for i := 0; i < n; i++ {
		s.cur.Coloring[i] = graph.NoColor
		s.cur.ClassID[i] = -1
	}
	s.cur.K = s.k
	s.cur.Version = s.version
	s.cur.NextVertex = n
	s.cur.Alive = s.nAlive
	s.cur.Colorable = true
	s.cur.CoalescedWeight, s.cur.RemainingWeight = 0, 0
	s.cur.CoalescedMoves, s.cur.RemainingMoves = 0, 0
	base := 0
	for _, ci := range order {
		r := cs.res[ci]
		vs := cs.comp(ci)
		if !r.colorable {
			s.cur.Colorable = false
		}
		s.cur.CoalescedWeight += r.coalescedW
		s.cur.RemainingWeight += r.remainingW
		s.cur.CoalescedMoves += r.coalescedMoves
		s.cur.RemainingMoves += r.remainingMoves
		for j, v := range vs {
			s.cur.Coloring[v] = r.color[j]
			s.cur.ClassID[v] = base + r.classOf[j]
		}
		base += r.nclasses
	}
	s.cur.NumClasses = base
}

// growInts returns s with length n, reusing capacity when possible.
func growInts(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}
