package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQuotientBasic(t *testing.T) {
	// a--b, affinity (a,c): merging a and c produces a 2-vertex graph with
	// one edge and no remaining affinities.
	g := NewNamed("a", "b", "c")
	g.AddEdge(0, 1)
	g.AddAffinity(0, 2, 3)
	p := NewPartition(3)
	p.Union(0, 2)
	q, old2new, err := Quotient(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if q.N() != 2 || q.E() != 1 {
		t.Fatalf("quotient n=%d e=%d, want 2, 1", q.N(), q.E())
	}
	if q.NumAffinities() != 0 {
		t.Fatalf("coalesced affinity survived: %v", q.Affinities())
	}
	if old2new[0] != old2new[2] {
		t.Fatal("merged vertices map differently")
	}
	if old2new[0] == old2new[1] {
		t.Fatal("separate vertices map identically")
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestQuotientRejectsInterferingMerge(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1)
	p := NewPartition(2)
	p.Union(0, 1)
	if _, _, err := Quotient(g, p); err == nil {
		t.Fatal("quotient of interfering class should fail")
	}
}

func TestQuotientRejectsPrecolorConflict(t *testing.T) {
	g := New(2)
	g.SetPrecolored(0, 0)
	g.SetPrecolored(1, 1)
	p := NewPartition(2)
	p.Union(0, 1)
	if _, _, err := Quotient(g, p); err == nil {
		t.Fatal("quotient merging two precolors should fail")
	}
}

func TestQuotientMergesParallelAffinities(t *testing.T) {
	// Affinities (a,c) and (b,c) with a,b merged become one affinity of
	// combined weight.
	g := New(3)
	g.AddAffinity(0, 2, 3)
	g.AddAffinity(1, 2, 4)
	p := NewPartition(3)
	p.Union(0, 1)
	q, _, err := Quotient(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumAffinities() != 1 {
		t.Fatalf("affinities=%v, want one merged", q.Affinities())
	}
	if q.Affinities()[0].Weight != 7 {
		t.Fatalf("merged weight=%d, want 7", q.Affinities()[0].Weight)
	}
}

func TestQuotientCarriesPrecolorAndNames(t *testing.T) {
	g := NewNamed("x", "y", "z")
	g.SetPrecolored(1, 3)
	p := NewPartition(3)
	p.Union(1, 2)
	q, old2new, err := Quotient(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := q.Precolored(old2new[2]); !ok || c != 3 {
		t.Fatal("precolor not carried through quotient")
	}
	if q.Name(old2new[0]) != "x" {
		t.Fatal("name not carried through quotient")
	}
}

func TestCanMerge(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	p := NewPartition(4)
	if CanMerge(g, p, 0, 1) {
		t.Fatal("cannot merge interfering vertices")
	}
	if !CanMerge(g, p, 0, 2) {
		t.Fatal("should merge non-interfering vertices")
	}
	p.Union(2, 1) // class {1,2} now contains a neighbor of 0
	if CanMerge(g, p, 0, 2) {
		t.Fatal("merge must consider whole classes")
	}
	if !CanMerge(g, p, 1, 2) {
		t.Fatal("same-class merge is trivially allowed")
	}
}

func TestCanMergePrecolor(t *testing.T) {
	g := New(3)
	g.SetPrecolored(0, 1)
	g.SetPrecolored(1, 2)
	p := NewPartition(3)
	if CanMerge(g, p, 0, 1) {
		t.Fatal("cannot merge distinct precolors")
	}
	if !CanMerge(g, p, 0, 2) {
		t.Fatal("precolored with plain vertex is allowed")
	}
}

func TestMergeAllCoalescesWhatItCan(t *testing.T) {
	// Triangle of interferences s1-s2-s3 plus chains of affinities: the
	// Figure 1 flavor. MergeAll must coalesce every affinity not blocked by
	// an interference path.
	g := NewNamed("s1", "s2", "s3", "u")
	g.AddClique(0, 1, 2)
	g.AddAffinity(3, 0, 1) // u can merge with s1
	p := MergeAll(g)
	if !p.Same(3, 0) {
		t.Fatal("MergeAll should coalesce (u, s1)")
	}
	if !p.CompatibleWith(g) {
		t.Fatal("MergeAll produced an invalid coalescing")
	}
}

// Property: Quotient of a random compatible coalescing is loop-free, valid,
// and preserves total affinity weight split between coalesced and remaining.
func TestQuickQuotientInvariants(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%15) + 2
		rng := rand.New(rand.NewSource(seed))
		g := RandomER(rng, n, 0.3)
		SprinkleAffinities(rng, g, n, 5)
		p := MergeAll(g)
		if !p.CompatibleWith(g) {
			return false
		}
		q, _, err := Quotient(g, p)
		if err != nil {
			return false
		}
		if q.Validate() != nil {
			return false
		}
		_, remaining := p.CoalescedAffinities(g)
		var remWeight int64
		for _, a := range remaining {
			remWeight += a.Weight
		}
		return q.TotalAffinityWeight() == remWeight
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: lifting a coloring of the quotient yields a proper coloring of
// the original graph.
func TestQuickQuotientColoringLift(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%12) + 2
		rng := rand.New(rand.NewSource(seed))
		g := RandomER(rng, n, 0.3)
		SprinkleAffinities(rng, g, n, 3)
		p := MergeAll(g)
		q, old2new, err := Quotient(g, p)
		if err != nil {
			return false
		}
		// Color the quotient trivially: one color per vertex.
		col := NewColoring(q.N())
		for i := range col {
			col[i] = i
		}
		lifted := col.Lift(old2new)
		return lifted.Proper(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// maxQuotientAllocs bounds the allocations of one Quotient on a graph
// with affinities left to merge: the vertex map, New's five (graph,
// neighbor slices, names, precolors, bitset), the shared neighbor
// backing, and the affinity list with mergeAffinities' scratch copy and
// bucket counts.
const maxQuotientAllocs = 10

// TestQuotientAllocs gates Quotient's allocations on a graph sized like
// servebench's hot mix, coalesced by the aggressive sweep. The count
// does not grow with the graph: no map, no per-class slice, no per-edge
// insert.
func TestQuotientAllocs(t *testing.T) {
	if RaceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	for _, n := range []int{40, 300} {
		rng := rand.New(rand.NewSource(42))
		g := RandomER(rng, n, 0.245)
		SprinkleAffinities(rng, g, 30, 50)
		g.SetPrecolored(0, 0)
		p := MergeAll(g)
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := Quotient(g, p); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > maxQuotientAllocs {
			t.Fatalf("n=%d: Quotient allocates %.0f times, want at most %d", n, allocs, maxQuotientAllocs)
		}
	}
}
