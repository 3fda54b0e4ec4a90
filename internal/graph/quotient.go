package graph

import "fmt"

// Quotient builds the coalesced graph G_f of the paper: the quotient of g by
// the partition p. Each class of p becomes a single vertex; there is an
// interference edge between two classes iff some pair of their members
// interferes in g.
//
// Quotient returns an error if p is not a coalescing of g, i.e. if some
// class contains two interfering vertices (the quotient would have a
// self-loop) or two vertices precolored differently.
//
// The second result maps each vertex of g to its vertex in the quotient.
// Affinities are carried over: an affinity internal to a class disappears
// (it is coalesced); the others are re-attached to the class vertices, with
// parallel affinities merged by weight. Precoloring is carried to the class
// vertex. Class vertices are named after their smallest member's name.
//
// Quotient runs in O(V + E + A) beyond zeroing the quotient's bitset: the
// classes are numbered by smallest member in one pass over the vertices
// (Partition.number), each edge sets its bit in the quotient's bitset,
// fillNeighbors reads the neighbor slices off the rows, and
// mergeAffinities merges the re-attached affinities.
func Quotient(g *Graph, p *Partition) (*Graph, []V, error) {
	if p.N() != g.N() {
		return nil, nil, fmt.Errorf("graph: partition over %d vertices does not match graph with %d vertices", p.N(), g.N())
	}
	old2new := make([]V, g.n)
	q := New(p.number(old2new))
	// The first member met of a class names it. A precolor conflict is
	// reported for the class with the smallest member, between its first
	// precolor and the first that differs, as a scan class by class would.
	named, conflict := 0, -1
	var first, second int
	for v, c := range old2new {
		if int(c) == named {
			q.names[c] = g.names[v]
			named++
		}
		col := g.precolored[v]
		if col == NoColor {
			continue
		}
		switch prev := q.precolored[c]; {
		case prev == NoColor:
			q.precolored[c] = col
		case prev != col && (conflict < 0 || int(c) < conflict):
			conflict, first, second = int(c), prev, col
		}
	}
	if conflict >= 0 {
		var class []V
		for v, c := range old2new {
			if int(c) == conflict {
				class = append(class, V(v))
			}
		}
		return nil, nil, fmt.Errorf("graph: class %v merges precolors %d and %d", class, first, second)
	}
	// Each half-edge sets one orientation of its class pair. Vertices and
	// their neighbors run in increasing order, so the first interfering
	// pair met inside a class is the smallest edge (u < v) in one.
	for u, a := range old2new {
		row := q.bits[int(a)*q.stride:]
		for _, v := range g.nbr[u] {
			b := old2new[v]
			if a == b {
				return nil, nil, fmt.Errorf("graph: vertices %d and %d interfere but share a class", u, int(v))
			}
			row[b>>6] |= 1 << (uint(b) & 63)
		}
	}
	q.fillNeighbors()
	as := make([]Affinity, 0, len(g.affinities))
	for _, a := range g.affinities {
		if x, y := old2new[a.X], old2new[a.Y]; x != y {
			as = append(as, Affinity{X: x, Y: y, Weight: a.Weight}.Canon())
		}
	}
	if len(as) > 0 { // with no affinity left, the list stays nil
		q.affinities = mergeAffinities(as, q.n)
	}
	return q, old2new, nil
}

// CanMerge reports whether u and v can be put in the same class of a
// coalescing of g extending p: their classes must contain no interfering
// pair and no conflicting precoloring. It does not modify p.
func CanMerge(g *Graph, p *Partition, u, v V) bool {
	ru, rv := p.Find(u), p.Find(v)
	if ru == rv {
		return true
	}
	// Collect both classes in one O(n) walk over the vertices, which
	// Classes would also take but then build every class. Callers on hot
	// paths keep class membership themselves.
	var cu, cv []V
	for i := 0; i < g.N(); i++ {
		switch p.Find(V(i)) {
		case ru:
			cu = append(cu, V(i))
		case rv:
			cv = append(cv, V(i))
		}
	}
	var colorU, colorV = NoColor, NoColor
	for _, x := range cu {
		if c, ok := g.Precolored(x); ok {
			colorU = c
		}
	}
	for _, y := range cv {
		if c, ok := g.Precolored(y); ok {
			colorV = c
		}
	}
	if colorU != NoColor && colorV != NoColor && colorU != colorV {
		return false
	}
	for _, x := range cu {
		for _, y := range cv {
			if g.HasEdge(x, y) {
				return false
			}
		}
	}
	return true
}

// MergeAll unions, in order, every affinity pair of g that CanMerge accepts,
// and returns the resulting partition. This is the classic aggressive
// coalescing sweep (Chaitin); it is a heuristic for the paper's
// NP-complete aggressive coalescing problem — the order of the affinity list
// determines which moves survive when interferences conflict.
func MergeAll(g *Graph) *Partition {
	p := NewPartition(g.N())
	for _, a := range g.Affinities() {
		if CanMerge(g, p, a.X, a.Y) {
			p.Union(a.X, a.Y)
		}
	}
	return p
}
