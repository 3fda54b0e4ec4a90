package graph

import "fmt"

// Partition is a disjoint-set (union-find) structure over the vertices of a
// graph. It is the paper's formalization of a coalescing: a coalescing f of
// G is a partition of V such that no class contains two interfering
// vertices, and an affinity (u, v) is coalesced iff u and v are in the same
// class.
type Partition struct {
	parent []V
	rank   []int
	// classes counts the current number of classes; it starts at n and
	// decreases by one per effective Union.
	classes int
}

// NewPartition returns the discrete partition of n vertices (every vertex in
// its own class).
func NewPartition(n int) *Partition {
	p := &Partition{}
	p.Reset(n)
	return p
}

// Reset reinitializes p to the discrete partition of n vertices, reusing
// its storage when capacity allows — the Reset(g)-style lifecycle hook
// for pooled solver state that embeds a partition.
func (p *Partition) Reset(n int) {
	if cap(p.parent) < n {
		p.parent = make([]V, n)
	}
	if cap(p.rank) < n {
		p.rank = make([]int, n)
	}
	p.parent = p.parent[:n]
	p.rank = p.rank[:n]
	for i := range p.parent {
		p.parent[i] = V(i)
		p.rank[i] = 0
	}
	p.classes = n
}

// N reports the number of vertices the partition is defined over.
func (p *Partition) N() int { return len(p.parent) }

// NumClasses reports the current number of classes.
func (p *Partition) NumClasses() int { return p.classes }

// Find returns the canonical representative of v's class.
func (p *Partition) Find(v V) V {
	if v < 0 || int(v) >= len(p.parent) {
		panic(fmt.Sprintf("partition: vertex %d out of range [0,%d)", int(v), len(p.parent)))
	}
	root := v
	for p.parent[root] != root {
		root = p.parent[root]
	}
	for p.parent[v] != root {
		p.parent[v], v = root, p.parent[v]
	}
	return root
}

// Union merges the classes of u and v and returns the representative of the
// merged class. Union of vertices already in the same class is a no-op.
func (p *Partition) Union(u, v V) V {
	ru, rv := p.Find(u), p.Find(v)
	if ru == rv {
		return ru
	}
	if p.rank[ru] < p.rank[rv] {
		ru, rv = rv, ru
	}
	p.parent[rv] = ru
	if p.rank[ru] == p.rank[rv] {
		p.rank[ru]++
	}
	p.classes--
	return ru
}

// Same reports whether u and v are in the same class.
func (p *Partition) Same(u, v V) bool { return p.Find(u) == p.Find(v) }

// Clone returns an independent copy of the partition.
func (p *Partition) Clone() *Partition {
	return &Partition{
		parent:  append([]V(nil), p.parent...),
		rank:    append([]int(nil), p.rank...),
		classes: p.classes,
	}
}

// CopyFrom overwrites p with o's state, reusing p's storage when
// capacity allows — Clone for pooled trial partitions (the conservative
// coalescing tests probe one trial merge per affinity per round; cloning
// fresh each probe was the dominant allocation of the brute-force test).
func (p *Partition) CopyFrom(o *Partition) {
	p.parent = append(p.parent[:0], o.parent...)
	p.rank = append(p.rank[:0], o.rank...)
	p.classes = o.classes
}

// Classes returns the classes of the partition, each sorted increasingly,
// ordered by their smallest member. It is O(n): the classes are numbered
// in one pass and filled in vertex order into one shared backing array,
// each class capped at its size.
func (p *Partition) Classes() [][]V {
	id := make([]V, len(p.parent))
	size := make([]int, p.number(id))
	for _, c := range id {
		size[c]++
	}
	backing := make([]V, len(id))
	classes := make([][]V, len(size))
	off := 0
	for c, n := range size {
		classes[c] = backing[off : off : off+n]
		off += n
	}
	for v, c := range id {
		classes[c] = append(classes[c], V(v))
	}
	return classes
}

// number sets id[v] to the number of v's class for every vertex, the
// classes numbered 0, 1, ... by their smallest member, and returns how
// many there are. One pass in increasing vertex order meets each class
// first at its smallest member; id doubles as the table from a class's
// root to its number, since a root's own entry is that number.
func (p *Partition) number(id []V) int {
	for v := range id {
		id[v] = -1
	}
	k := 0
	for v := range id {
		r := p.Find(V(v))
		if id[r] < 0 {
			id[r] = V(k)
			k++
		}
		id[v] = id[r]
	}
	return k
}

// Refines reports whether p refines q, i.e. every class of p is contained in
// a class of q. The discrete partition refines every partition; every
// partition refines the all-in-one partition. The paper's de-coalescing g of
// a coalescing f is exactly a partition g that refines f.
func (p *Partition) Refines(q *Partition) bool {
	if p.N() != q.N() {
		return false
	}
	for i := 0; i < p.N(); i++ {
		r := p.Find(V(i))
		if !q.Same(V(i), r) {
			return false
		}
	}
	return true
}

// CompatibleWith reports whether the partition is a valid coalescing of g:
// no class contains two interfering vertices, and no class contains two
// vertices precolored with different colors.
func (p *Partition) CompatibleWith(g *Graph) bool {
	if p.N() != g.N() {
		return false
	}
	for _, e := range g.Edges() {
		if p.Same(e[0], e[1]) {
			return false
		}
	}
	colorOf := make(map[V]int)
	for v := 0; v < g.N(); v++ {
		c, ok := g.Precolored(V(v))
		if !ok {
			continue
		}
		r := p.Find(V(v))
		if prev, seen := colorOf[r]; seen && prev != c {
			return false
		}
		colorOf[r] = c
	}
	return true
}

// CoalescedAffinities returns the affinities of g whose endpoints the
// partition has identified (the coalesced moves) and the rest (the remaining
// moves). Self-affinities count as coalesced.
func (p *Partition) CoalescedAffinities(g *Graph) (coalesced, remaining []Affinity) {
	for _, a := range g.Affinities() {
		if p.Same(a.X, a.Y) {
			coalesced = append(coalesced, a)
		} else {
			remaining = append(remaining, a)
		}
	}
	return coalesced, remaining
}

// UncoalescedCount reports the number of affinities of g not coalesced by p,
// and the total weight of those affinities. This is the objective "K" of the
// paper's problem statements.
func (p *Partition) UncoalescedCount(g *Graph) (count int, weight int64) {
	for _, a := range g.Affinities() {
		if !p.Same(a.X, a.Y) {
			count++
			weight += a.Weight
		}
	}
	return count, weight
}

// FromColoring builds the partition that identifies all vertices of g having
// the same color in col (the "merge all vertices with same color" partition
// used in §4 of the paper). Uncolored vertices (NoColor) each stay alone.
func FromColoring(col Coloring) *Partition {
	p := NewPartition(len(col))
	first := make(map[int]V)
	for v, c := range col {
		if c == NoColor {
			continue
		}
		if u, ok := first[c]; ok {
			p.Union(u, V(v))
		} else {
			first[c] = V(v)
		}
	}
	return p
}
