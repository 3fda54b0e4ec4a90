package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// randomEdgeList draws an edge list over n vertices with duplicates and
// both orientations of some edges, plus a few affinities.
func randomEdgeList(rng *rand.Rand, n int) ([]V, []Affinity) {
	var edges []V
	m := rng.Intn(3*n + 1)
	for i := 0; i < m; i++ {
		u, v := V(rng.Intn(n)), V(rng.Intn(n))
		if u == v {
			continue
		}
		edges = append(edges, u, v)
		switch rng.Intn(4) {
		case 0:
			edges = append(edges, u, v)
		case 1:
			edges = append(edges, v, u)
		}
	}
	var affs []Affinity
	for i := rng.Intn(n + 1); i > 0; i-- {
		affs = append(affs, Affinity{X: V(rng.Intn(n)), Y: V(rng.Intn(n)), Weight: int64(rng.Intn(5))})
	}
	return edges, affs
}

// oneByOne builds the same graph through New, AddEdge and AddAffinity.
func oneByOne(n int, edges []V, affs []Affinity) *Graph {
	g := New(n)
	for i := 0; i < len(edges); i += 2 {
		g.AddEdge(edges[i], edges[i+1])
	}
	for _, a := range affs {
		g.AddAffinity(a.X, a.Y, a.Weight)
	}
	return g
}

func sameGraph(t *testing.T, got, want *Graph) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if got.N() != want.N() || got.E() != want.E() {
		t.Fatalf("n=%d e=%d, want n=%d e=%d", got.N(), got.E(), want.N(), want.E())
	}
	if !slices.Equal(got.Edges(), want.Edges()) {
		t.Fatalf("edges %v, want %v", got.Edges(), want.Edges())
	}
	if !slices.Equal(got.Affinities(), want.Affinities()) {
		t.Fatalf("affinities %v, want %v", got.Affinities(), want.Affinities())
	}
	var gb, wb []V
	for v := V(0); int(v) < got.N(); v++ {
		if got.Degree(v) != want.Degree(v) {
			t.Fatalf("degree(%d) = %d, want %d", v, got.Degree(v), want.Degree(v))
		}
		gb, wb = got.NeighborsInto(gb, v), want.NeighborsInto(wb, v)
		if !slices.Equal(gb, wb) {
			t.Fatalf("neighbors(%d) = %v, want %v", v, gb, wb)
		}
		for w := V(0); int(w) < got.N(); w++ {
			if got.HasEdge(v, w) != want.HasEdge(v, w) {
				t.Fatalf("HasEdge(%d,%d) = %v, want %v", v, w, got.HasEdge(v, w), want.HasEdge(v, w))
			}
		}
	}
}

func TestFromEdgesMatchesAddEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(150)
		edges, affs := randomEdgeList(rng, n)
		sameGraph(t, FromEdges(n, edges, affs), oneByOne(n, edges, affs))
	}
}

// A slice capped at its degree must reallocate on growth: a later
// AddEdge must not write into the next vertex's part of the shared
// backing array.
func TestFromEdgesLaterAddEdgeKeepsOtherSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(80)
		edges, affs := randomEdgeList(rng, n)
		g, want := FromEdges(n, edges, affs), oneByOne(n, edges, affs)
		for i := 0; i < 2*n; i++ {
			u, v := V(rng.Intn(n)), V(rng.Intn(n))
			if u == v {
				continue
			}
			if rng.Intn(3) == 0 {
				g.RemoveEdge(u, v)
				want.RemoveEdge(u, v)
			} else {
				g.AddEdge(u, v)
				want.AddEdge(u, v)
			}
		}
		sameGraph(t, g, want)
	}
}

func TestFromEdgesRejectsBadInput(t *testing.T) {
	for name, build := range map[string]func(){
		"odd list":     func() { FromEdges(3, []V{0, 1, 2}, nil) },
		"out of range": func() { FromEdges(3, []V{0, 3}, nil) },
		"self-loop":    func() { FromEdges(3, []V{1, 1}, nil) },
		"bad affinity": func() { FromEdges(3, nil, []Affinity{{X: 0, Y: 5, Weight: 1}}) },
		"negative w":   func() { FromEdges(3, nil, []Affinity{{X: 0, Y: 1, Weight: -1}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			build()
		}()
	}
}
