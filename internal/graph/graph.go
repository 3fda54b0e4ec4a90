// Package graph implements the interference-graph substrate used throughout
// the reproduction of Bouchez, Darte and Rastello, "On the Complexity of
// Register Coalescing" (LIP RR-2006-15 / CGO 2007).
//
// A Graph is an undirected interference graph: vertices are program
// variables (live ranges), edges are interferences (the two endpoints cannot
// share a register). On top of the interference structure the graph carries
// affinities: weighted move edges (u, v) recording that assigning u and v
// the same color removes one register-to-register move of the given weight.
//
// The package also provides the quotient construction that formalizes
// coalescing in the paper: a coalescing is a partition of the vertices such
// that no two vertices of a class interfere, and the coalesced graph G_f is
// the quotient of G by that partition (see Partition and Quotient).
//
// # Representation
//
// Interference is stored twice, in the hybrid layout production allocators
// use for dense, high-pressure graphs (see docs/PERFORMANCE.md):
//
//   - a dense bitset matrix (one []uint64 row per vertex, all rows packed
//     into a single flat slice) giving O(1) HasEdge and word-parallel set
//     operations over neighborhoods (BitsetNeighbors, MaskedDegree,
//     CommonNeighborCount);
//   - compact sorted adjacency slices giving O(deg) allocation-free
//     iteration in increasing vertex order (ForEachNeighbor,
//     NeighborsInto) and O(1) Degree.
//
// The two structures are maintained together by AddEdge/RemoveEdge; the
// memory cost is n²/8 bytes for the matrix plus ~8 bytes per half-edge for
// the slices, a fine trade at interference-graph scale (Validate checks
// their consistency). Iteration order is increasing vertex order — a
// strictly stronger guarantee than the unspecified map order of the old
// representation, which determinism-sensitive callers had to sort away.
package graph

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// V identifies a vertex. Vertices of a graph with n vertices are the dense
// range 0..n-1.
type V int

// NoColor is the color value of an uncolored or non-precolored vertex.
const NoColor = -1

// Affinity is a move edge between two vertices: coalescing X and Y (giving
// them the same color) saves a move instruction whose dynamic execution
// count is Weight. Affinities never constrain a coloring; they only reward
// identification of colors.
type Affinity struct {
	X, Y   V
	Weight int64
}

// Canon returns the affinity with endpoints ordered X <= Y, so that
// affinities can be compared and deduplicated independently of endpoint
// order.
func (a Affinity) Canon() Affinity {
	if a.X > a.Y {
		a.X, a.Y = a.Y, a.X
	}
	return a
}

// Graph is a mutable undirected interference graph with affinities and
// optional precolored vertices (machine registers). The zero value is an
// empty graph; use New or NewNamed for a graph with vertices.
type Graph struct {
	n      int
	stride int      // words per bitset row; >= wordsFor(n)
	bits   []uint64 // n rows of stride words; row v starts at v*stride
	nbr    [][]V    // sorted neighbor slices; len(nbr[v]) == Degree(v)

	names      []string
	precolored []int
	affinities []Affinity
	edges      int
	frozen     bool
}

// New returns a graph with n vertices (0..n-1) and no edges, affinities, or
// precoloring.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	g := &Graph{
		n:          n,
		stride:     wordsFor(n),
		nbr:        make([][]V, n),
		names:      make([]string, n),
		precolored: make([]int, n),
	}
	g.bits = make([]uint64, n*g.stride)
	for i := range g.precolored {
		g.precolored[i] = NoColor
	}
	return g
}

// NewNamed returns a graph with one vertex per name, in order.
func NewNamed(names ...string) *Graph {
	g := New(len(names))
	copy(g.names, names)
	return g
}

// FromEdges returns an n-vertex graph whose interference edges are the
// pairs (edges[2i], edges[2i+1]) and whose affinities are a copy of
// affinities, in order and endpoint-ordered as AddAffinity stores them.
// Duplicate edges and both orientations of one edge are allowed and count
// once. It is the bulk form of New plus one AddEdge and AddAffinity per
// element, and builds the same graph: the bitset is set from the edge
// list, then fillNeighbors reads the sorted neighbor slices off it.
// Endpoints out of range, self-loops and negative weights panic, as in
// AddEdge and AddAffinity.
func FromEdges(n int, edges []V, affinities []Affinity) *Graph {
	if len(edges)%2 != 0 {
		panic(fmt.Sprintf("graph: odd edge list length %d", len(edges)))
	}
	g := New(n)
	for i := 0; i < len(edges); i += 2 {
		u, v := edges[i], edges[i+1]
		g.check(u)
		g.check(v)
		if u == v {
			panic(fmt.Sprintf("graph: self-loop on vertex %d", int(u)))
		}
		g.bits[int(u)*g.stride+int(v)>>6] |= 1 << (uint(v) & 63)
		g.bits[int(v)*g.stride+int(u)>>6] |= 1 << (uint(u) & 63)
	}
	g.fillNeighbors()
	if len(affinities) > 0 {
		g.affinities = make([]Affinity, len(affinities))
	}
	for i, a := range affinities {
		g.check(a.X)
		g.check(a.Y)
		if a.Weight < 0 {
			panic(fmt.Sprintf("graph: negative affinity weight %d", a.Weight))
		}
		g.affinities[i] = a.Canon()
	}
	return g
}

// fillNeighbors sets the edge count and every vertex's sorted neighbor
// slice of a graph whose bitset holds its edges (both orientations) and
// whose slices are still empty, as New leaves them: the slices are read
// off the bitset rows into one shared backing array. Each slice is capped
// at its degree, so a later AddEdge reallocates it instead of overwriting
// the next vertex's neighbors.
func (g *Graph) fillNeighbors() {
	half := 0
	for _, word := range g.bits {
		half += bits.OnesCount64(word)
	}
	g.edges = half / 2
	backing := make([]V, half)
	off := 0
	for u := 0; u < g.n; u++ {
		start := off
		for w, word := range g.row(V(u)) {
			for word != 0 {
				backing[off] = V(w<<6 | bits.TrailingZeros64(word))
				off++
				word &= word - 1
			}
		}
		if off > start {
			g.nbr[u] = backing[start:off:off]
		}
	}
}

// N reports the number of vertices.
func (g *Graph) N() int { return g.n }

// E reports the number of interference edges.
func (g *Graph) E() int { return g.edges }

// Vertices returns all vertex ids in increasing order.
func (g *Graph) Vertices() []V {
	vs := make([]V, g.n)
	for i := range vs {
		vs[i] = V(i)
	}
	return vs
}

// row returns vertex v's full bitset row (stride words).
func (g *Graph) row(v V) []uint64 {
	off := int(v) * g.stride
	return g.bits[off : off+g.stride]
}

// growTo widens the bitset matrix to hold at least n vertices, restriding
// (with doubling, to amortize vertex-at-a-time growth as in CliqueLift)
// when n no longer fits the current row width.
func (g *Graph) growTo(n int) {
	need := wordsFor(n)
	if need > g.stride {
		stride := 2 * g.stride
		if stride < need {
			stride = need
		}
		nb := make([]uint64, n*stride)
		for v := 0; v < g.n; v++ {
			copy(nb[v*stride:], g.bits[v*g.stride:v*g.stride+g.stride])
		}
		g.bits = nb
		g.stride = stride
		return
	}
	if want := n * g.stride; len(g.bits) < want {
		g.bits = append(g.bits, make([]uint64, want-len(g.bits))...)
	}
}

// AddVertex appends a fresh isolated vertex and returns its id.
func (g *Graph) AddVertex() V {
	g.mutable("AddVertex")
	g.growTo(g.n + 1)
	g.n++
	g.nbr = append(g.nbr, nil)
	g.names = append(g.names, "")
	g.precolored = append(g.precolored, NoColor)
	return V(g.n - 1)
}

// AddNamedVertex appends a fresh isolated vertex with the given name.
func (g *Graph) AddNamedVertex(name string) V {
	v := g.AddVertex()
	g.names[v] = name
	return v
}

// Name returns the vertex name, or "v<i>" when the vertex is unnamed.
func (g *Graph) Name(v V) string {
	g.check(v)
	if g.names[v] == "" {
		return fmt.Sprintf("v%d", int(v))
	}
	return g.names[v]
}

// HasName reports whether v carries an explicit name (set via NewNamed,
// AddNamedVertex or SetName), as opposed to the synthesized "v<i>"
// fallback that Name returns for unnamed vertices.
func (g *Graph) HasName(v V) bool {
	g.check(v)
	return g.names[v] != ""
}

// SetName sets the vertex name.
func (g *Graph) SetName(v V, name string) {
	g.mutable("SetName")
	g.check(v)
	g.names[v] = name
}

// VertexByName returns the first vertex with the given name.
func (g *Graph) VertexByName(name string) (V, bool) {
	for i, n := range g.names {
		if n == name {
			return V(i), true
		}
	}
	return -1, false
}

func (g *Graph) check(v V) {
	if v < 0 || int(v) >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", int(v), g.n))
	}
}

// Freeze marks the graph read-only and returns it: every subsequent
// structural mutation (AddEdge, AddVertex, AddAffinity, precoloring,
// renaming) panics. Freezing is how one parsed instance is shared —
// without cloning — by concurrent portfolio racers and strategy-matrix
// columns: the panic turns a silent cross-racer data race into a loud
// contract violation. Freezing is irreversible on this value; Clone
// returns a mutable copy.
func (g *Graph) Freeze() *Graph {
	g.frozen = true
	return g
}

// Frozen reports whether the graph has been frozen.
func (g *Graph) Frozen() bool { return g.frozen }

// mutable panics when the graph is frozen; every mutator calls it first.
func (g *Graph) mutable(op string) {
	if g.frozen {
		panic("graph: " + op + " on frozen graph (shared read-only snapshot; Clone first)")
	}
}

// insertSorted inserts v into the sorted slice s. Appending at the tail
// (edges arriving in increasing order, the common build pattern) is O(1).
func insertSorted(s []V, v V) []V {
	if n := len(s); n == 0 || s[n-1] < v {
		return append(s, v)
	}
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// removeSorted removes v from the sorted slice s (v must be present).
func removeSorted(s []V, v V) []V {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	copy(s[i:], s[i+1:])
	return s[:len(s)-1]
}

// AddEdge adds the interference edge (u, v). Adding an existing edge is a
// no-op. Self-loops are rejected: a variable trivially shares a register
// with itself.
func (g *Graph) AddEdge(u, v V) {
	g.mutable("AddEdge")
	g.check(u)
	g.check(v)
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on vertex %d", int(u)))
	}
	iu := int(u)*g.stride + int(v)>>6
	mu := uint64(1) << (uint(v) & 63)
	if g.bits[iu]&mu != 0 {
		return
	}
	g.bits[iu] |= mu
	g.bits[int(v)*g.stride+int(u)>>6] |= 1 << (uint(u) & 63)
	g.nbr[u] = insertSorted(g.nbr[u], v)
	g.nbr[v] = insertSorted(g.nbr[v], u)
	g.edges++
}

// RemoveEdge removes the interference edge (u, v) if present.
func (g *Graph) RemoveEdge(u, v V) {
	g.mutable("RemoveEdge")
	g.check(u)
	g.check(v)
	iu := int(u)*g.stride + int(v)>>6
	mu := uint64(1) << (uint(v) & 63)
	if g.bits[iu]&mu == 0 {
		return
	}
	g.bits[iu] &^= mu
	g.bits[int(v)*g.stride+int(u)>>6] &^= 1 << (uint(u) & 63)
	g.nbr[u] = removeSorted(g.nbr[u], v)
	g.nbr[v] = removeSorted(g.nbr[v], u)
	g.edges--
}

// HasEdge reports whether u and v interfere. O(1): one word probe in the
// bitset matrix.
func (g *Graph) HasEdge(u, v V) bool {
	g.check(u)
	g.check(v)
	return g.bits[int(u)*g.stride+int(v)>>6]&(1<<(uint(v)&63)) != 0
}

// Degree reports the number of interference neighbors of v. O(1).
func (g *Graph) Degree(v V) int {
	g.check(v)
	return len(g.nbr[v])
}

// Neighbors returns the interference neighbors of v in increasing order.
// The slice is freshly allocated; callers may keep or modify it. Hot loops
// should prefer ForEachNeighbor or NeighborsInto, which do not allocate.
func (g *Graph) Neighbors(v V) []V {
	g.check(v)
	return append([]V(nil), g.nbr[v]...)
}

// NeighborsInto overwrites dst with the neighbors of v in increasing order
// and returns it, growing it only when v's degree exceeds cap(dst). It is
// the allocation-free variant of Neighbors for loops that reuse a buffer.
func (g *Graph) NeighborsInto(dst []V, v V) []V {
	g.check(v)
	return append(dst[:0], g.nbr[v]...)
}

// ForEachNeighbor calls fn for every interference neighbor of v, in
// increasing vertex order. It avoids the allocation of Neighbors and is
// the right call on hot paths.
func (g *Graph) ForEachNeighbor(v V, fn func(w V)) {
	g.check(v)
	for _, w := range g.nbr[v] {
		fn(w)
	}
}

// BitsetNeighbors returns the neighborhood of v as a read-only bitset,
// sized wordsFor(N()) — directly compatible with masks from NewBits(N())
// and the word-parallel helpers (AndCount, MaskedDegree). The returned
// slice aliases the graph: callers must not modify it, and it is
// invalidated by AddVertex.
func (g *Graph) BitsetNeighbors(v V) Bits {
	g.check(v)
	off := int(v) * g.stride
	return Bits(g.bits[off : off+wordsFor(g.n)])
}

// MaskedDegree counts the neighbors of v inside mask word-parallelly —
// the degree of v in the subgraph induced by mask, without touching the
// adjacency slices. mask is typically NewBits(N())-sized.
func (g *Graph) MaskedDegree(v V, mask Bits) int {
	g.check(v)
	return AndCount(g.BitsetNeighbors(v), mask)
}

// CommonNeighborCount counts the common interference neighbors of u and v
// word-parallelly — the |N(u) ∩ N(v)| term of the Briggs/George
// conservative tests.
func (g *Graph) CommonNeighborCount(u, v V) int {
	g.check(u)
	g.check(v)
	return AndCount(g.BitsetNeighbors(u), g.BitsetNeighbors(v))
}

// Edges returns all interference edges with u < v, sorted lexicographically.
func (g *Graph) Edges() [][2]V {
	es := make([][2]V, 0, g.edges)
	for u := 0; u < g.n; u++ {
		for _, v := range g.nbr[u] {
			if V(u) < v {
				es = append(es, [2]V{V(u), v})
			}
		}
	}
	return es
}

// AddAffinity records a move edge between u and v with the given weight.
// Parallel affinities are allowed and count separately (they correspond to
// distinct move instructions); use NormalizeAffinities to merge them.
// An affinity between interfering vertices is permitted — it is a
// "constrained" move that no coalescing can remove — as is a self-affinity
// (already coalesced; always satisfied).
func (g *Graph) AddAffinity(u, v V, weight int64) {
	g.mutable("AddAffinity")
	g.check(u)
	g.check(v)
	if weight < 0 {
		panic(fmt.Sprintf("graph: negative affinity weight %d", weight))
	}
	g.affinities = append(g.affinities, Affinity{X: u, Y: v, Weight: weight}.Canon())
}

// Affinities returns the affinity list. The returned slice is shared with
// the graph; callers must not modify it.
func (g *Graph) Affinities() []Affinity { return g.affinities }

// NumAffinities reports the number of affinities.
func (g *Graph) NumAffinities() int { return len(g.affinities) }

// TotalAffinityWeight reports the sum of all affinity weights.
func (g *Graph) TotalAffinityWeight() int64 {
	var t int64
	for _, a := range g.affinities {
		t += a.Weight
	}
	return t
}

// NormalizeAffinities merges parallel affinities (same endpoint pair) by
// summing weights, drops self-affinities, and sorts the affinity list.
func (g *Graph) NormalizeAffinities() {
	g.mutable("NormalizeAffinities")
	as := g.affinities[:0]
	for _, a := range g.affinities {
		if a = a.Canon(); a.X != a.Y {
			as = append(as, a)
		}
	}
	g.affinities = mergeAffinities(as, g.n)
}

// mergeAffinities sorts as by endpoints and sums each run of parallel
// affinities into its first, in place, and returns the merged prefix:
// the list NormalizeAffinities and Quotient leave, sorted as
// SortAffinities would sort it. Every affinity must be endpoint-ordered
// with X < Y < n. Two stable counting passes, by Y into a scratch copy
// and then by X back into as, make it O(n + len(as)).
func mergeAffinities(as []Affinity, n int) []Affinity {
	if len(as) < 2 {
		return as
	}
	tmp := make([]Affinity, len(as))
	count := make([]int, n+1)
	countingPass(tmp, as, count, false)
	clear(count)
	countingPass(as, tmp, count, true)
	m := 1
	for _, a := range as[1:] {
		if last := &as[m-1]; last.X == a.X && last.Y == a.Y {
			last.Weight += a.Weight
			continue
		}
		as[m] = a
		m++
	}
	return as[:m]
}

// countingPass stably scatters src into dst by X (byX) or by Y, using
// count (zeroed, one longer than the largest key) for the bucket offsets.
func countingPass(dst, src []Affinity, count []int, byX bool) {
	key := func(a Affinity) V {
		if byX {
			return a.X
		}
		return a.Y
	}
	for _, a := range src {
		count[key(a)+1]++
	}
	for i := 1; i < len(count); i++ {
		count[i] += count[i-1]
	}
	for _, a := range src {
		k := key(a)
		dst[count[k]] = a
		count[k]++
	}
}

// SortAffinities sorts affinities by endpoints, then weight. It performs
// no heap allocation (slices.SortFunc, unlike sort.Slice, does not box),
// so pooled solver state can sort its move list on the zero-alloc path.
func SortAffinities(as []Affinity) {
	slices.SortFunc(as, func(a, b Affinity) int {
		if a.X != b.X {
			return int(a.X - b.X)
		}
		if a.Y != b.Y {
			return int(a.Y - b.Y)
		}
		switch {
		case a.Weight < b.Weight:
			return -1
		case a.Weight > b.Weight:
			return 1
		}
		return 0
	})
}

// SetPrecolored pins v to the given color (machine register). Precolored
// vertices model physical registers in Chaitin-style allocators.
func (g *Graph) SetPrecolored(v V, color int) {
	g.mutable("SetPrecolored")
	g.check(v)
	if color < 0 {
		panic(fmt.Sprintf("graph: invalid precolor %d", color))
	}
	g.precolored[v] = color
}

// ClearPrecolored removes the precoloring of v.
func (g *Graph) ClearPrecolored(v V) {
	g.mutable("ClearPrecolored")
	g.check(v)
	g.precolored[v] = NoColor
}

// Precolored reports the pinned color of v, if any.
func (g *Graph) Precolored(v V) (int, bool) {
	g.check(v)
	c := g.precolored[v]
	return c, c != NoColor
}

// HasPrecolored reports whether any vertex is precolored.
func (g *Graph) HasPrecolored() bool {
	for _, c := range g.precolored {
		if c != NoColor {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the graph. The bitset matrix is one flat
// copy; adjacency slices are copied row by row. The copy is always
// mutable, even when g is frozen.
func (g *Graph) Clone() *Graph {
	h := &Graph{
		n:          g.n,
		stride:     g.stride,
		bits:       append([]uint64(nil), g.bits...),
		nbr:        make([][]V, g.n),
		names:      append([]string(nil), g.names...),
		precolored: append([]int(nil), g.precolored...),
		affinities: append([]Affinity(nil), g.affinities...),
		edges:      g.edges,
	}
	for v, ns := range g.nbr {
		if len(ns) > 0 {
			h.nbr[v] = append([]V(nil), ns...)
		}
	}
	return h
}

// InducedSubgraph returns the subgraph induced by keep, together with the
// mapping from old vertex ids to new ids (length g.N(), -1 for dropped
// vertices). Affinities with a dropped endpoint are dropped.
func (g *Graph) InducedSubgraph(keep []V) (*Graph, []V) {
	old2new := make([]V, g.n)
	for i := range old2new {
		old2new[i] = -1
	}
	sub := New(len(keep))
	for i, v := range keep {
		g.check(v)
		if old2new[v] != -1 {
			panic(fmt.Sprintf("graph: duplicate vertex %d in InducedSubgraph", int(v)))
		}
		old2new[v] = V(i)
		sub.names[i] = g.names[v]
		sub.precolored[i] = g.precolored[v]
	}
	for _, v := range keep {
		for _, w := range g.nbr[v] {
			if v < w && old2new[w] != -1 {
				sub.AddEdge(old2new[v], old2new[w])
			}
		}
	}
	for _, a := range g.affinities {
		x, y := old2new[a.X], old2new[a.Y]
		if x != -1 && y != -1 {
			sub.affinities = append(sub.affinities, Affinity{X: x, Y: y, Weight: a.Weight}.Canon())
		}
	}
	return sub, old2new
}

// AddClique adds all pairwise interference edges among vs.
func (g *Graph) AddClique(vs ...V) {
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			g.AddEdge(vs[i], vs[j])
		}
	}
}

// IsClique reports whether vs are pairwise interfering.
func (g *Graph) IsClique(vs []V) bool {
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			if !g.HasEdge(vs[i], vs[j]) {
				return false
			}
		}
	}
	return true
}

// MaxDegree reports the maximum vertex degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	m := 0
	for v := range g.nbr {
		if d := len(g.nbr[v]); d > m {
			m = d
		}
	}
	return m
}

// MinDegree reports the minimum vertex degree (0 for an empty graph).
func (g *Graph) MinDegree() int {
	if g.n == 0 {
		return 0
	}
	m := g.n
	for v := range g.nbr {
		if d := len(g.nbr[v]); d < m {
			m = d
		}
	}
	return m
}

// CliqueLift implements Property 2 of the paper: it returns a new graph G'
// built from g by adding a clique of p new vertices, each connected to every
// original vertex. G is k-colorable iff G' is (k+p)-colorable, G is chordal
// iff G' is chordal, and G is greedy-k-colorable iff G' is
// greedy-(k+p)-colorable. The ids of the p new vertices are returned.
// Affinities and precoloring of g are preserved on the original vertices.
func (g *Graph) CliqueLift(p int) (*Graph, []V) {
	if p < 0 {
		panic(fmt.Sprintf("graph: negative clique-lift size %d", p))
	}
	h := g.Clone()
	added := make([]V, p)
	for i := 0; i < p; i++ {
		added[i] = h.AddNamedVertex(fmt.Sprintf("lift%d", i))
	}
	h.AddClique(added...)
	for _, c := range added {
		for v := 0; v < g.n; v++ {
			h.AddEdge(c, V(v))
		}
	}
	return h, added
}

// ConnectedComponents returns the vertex sets of the connected components of
// the interference structure (affinities are ignored), each sorted, in order
// of smallest contained vertex.
func (g *Graph) ConnectedComponents() [][]V {
	seen := make([]bool, g.n)
	var comps [][]V
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		var comp []V
		stack := []V{V(s)}
		seen[s] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for _, w := range g.nbr[v] {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		comps = append(comps, comp)
	}
	return comps
}

// Validate checks internal consistency: bitset/adjacency-slice agreement,
// slice sortedness, adjacency symmetry, edge count, affinity endpoints in
// range and non-negative weights. It returns the first inconsistency
// found, or nil. A healthy graph built through the public API always
// validates; Validate exists to catch corruption in code that manipulates
// internals (tests, fuzzing).
func (g *Graph) Validate() error {
	if g.stride < wordsFor(g.n) {
		return fmt.Errorf("graph: stride %d too small for %d vertices", g.stride, g.n)
	}
	if len(g.bits) < g.n*g.stride {
		return fmt.Errorf("graph: bitset matrix has %d words, need %d", len(g.bits), g.n*g.stride)
	}
	count := 0
	for u := 0; u < g.n; u++ {
		row := g.row(V(u))
		if got := Bits(row[:wordsFor(g.n)]).Count(); got != len(g.nbr[u]) {
			return fmt.Errorf("graph: vertex %d bitset degree %d != slice degree %d", u, got, len(g.nbr[u]))
		}
		for i, v := range g.nbr[u] {
			if int(v) < 0 || int(v) >= g.n {
				return fmt.Errorf("graph: edge (%d,%d) endpoint out of range", u, int(v))
			}
			if V(u) == v {
				return fmt.Errorf("graph: self-loop on %d", u)
			}
			if i > 0 && g.nbr[u][i-1] >= v {
				return fmt.Errorf("graph: vertex %d adjacency slice unsorted at %d", u, i)
			}
			if row[int(v)>>6]&(1<<(uint(v)&63)) == 0 {
				return fmt.Errorf("graph: edge (%d,%d) in slice but not bitset", u, int(v))
			}
			if !g.HasEdge(v, V(u)) {
				return fmt.Errorf("graph: asymmetric edge (%d,%d)", u, int(v))
			}
			count++
		}
	}
	if count != 2*g.edges {
		return fmt.Errorf("graph: edge count %d does not match adjacency size %d", g.edges, count)
	}
	for _, a := range g.affinities {
		if int(a.X) < 0 || int(a.X) >= g.n || int(a.Y) < 0 || int(a.Y) >= g.n {
			return fmt.Errorf("graph: affinity %v endpoint out of range", a)
		}
		if a.Weight < 0 {
			return fmt.Errorf("graph: affinity %v has negative weight", a)
		}
	}
	return nil
}

// String renders a compact human-readable description: vertex count, edges,
// and affinities, using vertex names.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph n=%d e=%d moves=%d\n", g.N(), g.E(), len(g.affinities))
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "  %s -- %s\n", g.Name(e[0]), g.Name(e[1]))
	}
	for _, a := range g.affinities {
		fmt.Fprintf(&b, "  %s => %s (w=%d)\n", g.Name(a.X), g.Name(a.Y), a.Weight)
	}
	return b.String()
}
