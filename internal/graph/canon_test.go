package graph

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// permuteFile relabels f's vertices by perm (perm[old] = new), preserving
// k, edges, precoloring and affinities. Names are dropped: they must not
// influence the hash.
func permuteFile(f *File, perm []V) *File {
	g := f.G
	h := New(g.N())
	for _, e := range g.Edges() {
		h.AddEdge(perm[e[0]], perm[e[1]])
	}
	for v := 0; v < g.N(); v++ {
		if c, ok := g.Precolored(V(v)); ok {
			h.SetPrecolored(perm[v], c)
		}
	}
	for _, a := range g.Affinities() {
		h.AddAffinity(perm[a.X], perm[a.Y], a.Weight)
	}
	return &File{G: h, K: f.K}
}

func randomPerm(rng *rand.Rand, n int) []V {
	perm := make([]V, n)
	for i, p := range rng.Perm(n) {
		perm[i] = V(p)
	}
	return perm
}

func randomInstance(rng *rand.Rand) *File {
	g := RandomER(rng, 24, 0.25)
	SprinkleAffinities(rng, g, 10, 50)
	g.SetPrecolored(0, 1)
	return &File{G: g, K: 5}
}

func TestCanonicalHashRelabelingInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		f := randomInstance(rng)
		h0 := CanonicalHash(f)
		for i := 0; i < 3; i++ {
			pf := permuteFile(f, randomPerm(rng, f.G.N()))
			if h := CanonicalHash(pf); h != h0 {
				t.Fatalf("trial %d: relabeled instance hashed %s, original %s", trial, h, h0)
			}
		}
	}
}

func TestCanonicalHashSeparatesInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := randomInstance(rng)
	h0 := CanonicalHash(f)

	mutants := map[string]*File{}

	fk := &File{G: f.G.Clone(), K: f.K + 1}
	mutants["k changed"] = fk

	fe := &File{G: f.G.Clone(), K: f.K}
	added := false
	for u := 0; u < fe.G.N() && !added; u++ {
		for v := u + 1; v < fe.G.N(); v++ {
			if !fe.G.HasEdge(V(u), V(v)) {
				fe.G.AddEdge(V(u), V(v))
				added = true
				break
			}
		}
	}
	mutants["edge added"] = fe

	fw := &File{G: f.G.Clone(), K: f.K}
	fw.G.AddAffinity(1, 2, 999)
	mutants["affinity added"] = fw

	fp := &File{G: f.G.Clone(), K: f.K}
	fp.G.SetPrecolored(3, 2)
	mutants["precolor added"] = fp

	for what, m := range mutants {
		if CanonicalHash(m) == h0 {
			t.Errorf("%s: hash did not change", what)
		}
	}
}

func TestCanonicalHashIgnoresNames(t *testing.T) {
	f, err := ParseString("k 3\nnode a\nnode b\nedge a b\nmove a b 4\n")
	if err != nil {
		t.Fatal(err)
	}
	g, err := ParseString("k 3\nnode x\nnode y\nedge x y\nmove x y 4\n")
	if err != nil {
		t.Fatal(err)
	}
	if CanonicalHash(f) != CanonicalHash(g) {
		t.Fatal("renaming vertices changed the hash")
	}
}

func TestCanonicalFormPermIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := randomInstance(rng)
	c := CanonicalForm(f)
	if len(c.Perm) != f.G.N() {
		t.Fatalf("perm length %d, want %d", len(c.Perm), f.G.N())
	}
	seen := make([]bool, len(c.Perm))
	for _, p := range c.Perm {
		if p < 0 || int(p) >= len(seen) || seen[p] {
			t.Fatalf("perm %v is not a permutation", c.Perm)
		}
		seen[p] = true
	}
	inv := c.Inverse()
	for v, p := range c.Perm {
		if inv[p] != V(v) {
			t.Fatalf("Inverse does not invert Perm at %d", v)
		}
	}
	// Deterministic across calls.
	c2 := CanonicalForm(f)
	if c2.Hash != c.Hash {
		t.Fatal("hash not deterministic")
	}
	for i := range c.Perm {
		if c.Perm[i] != c2.Perm[i] {
			t.Fatal("perm not deterministic")
		}
	}
}

// TestCanonicalFormAllocs gates the warm call at the three allocations it
// returns (the Canonical, its Perm and its Hash): every signature,
// neighbor list and the serialization live in pooled scratch. Under -race
// the call still runs but the count is skipped, as in the regalloc gate.
func TestCanonicalFormAllocs(t *testing.T) {
	f := randomInstance(rand.New(rand.NewSource(5)))
	want := CanonicalForm(f) // warm the pool
	allocs := testing.AllocsPerRun(50, func() {
		if c := CanonicalForm(f); c.Hash != want.Hash {
			t.Fatal("warm call changed the hash")
		}
	})
	if RaceEnabled {
		t.Skipf("race detector inflates alloc counts (measured %v); pooled path exercised, count skipped", allocs)
	}
	if allocs > 4 {
		t.Fatalf("warm CanonicalForm allocates %v times per call, want <= 4", allocs)
	}
}

// TestCanonicalFormConcurrent runs CanonicalForm from 8 goroutines over
// graphs of mixed sizes, so pooled scratch moves between sizes and
// goroutines, and checks every result against a sequential run. Under
// -race it also shows no scratch is shared between two calls.
func TestCanonicalFormConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var files []*File
	for _, n := range []int{0, 1, 5, 24, 40, 90, 160} {
		g := RandomER(rng, n, 0.2)
		SprinkleAffinities(rng, g, n/2, 40)
		files = append(files, &File{G: g, K: 4})
	}
	want := make([]*Canonical, len(files))
	for i, f := range files {
		want[i] = CanonicalForm(f)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				i := (w + 3*r) % len(files)
				c := CanonicalForm(files[i])
				if c.Hash != want[i].Hash || !slices.Equal(c.Perm, want[i].Perm) {
					t.Errorf("goroutine %d: graph %d (n=%d) differs from the sequential result", w, i, files[i].G.N())
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// A solution computed in canonical space must map back to a valid solution
// of any instance with the same hash — the property the service cache
// relies on.
func TestCanonicalSolutionTransfer(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	f := randomInstance(rng)
	pf := permuteFile(f, randomPerm(rng, f.G.N()))
	cf, cpf := CanonicalForm(f), CanonicalForm(pf)
	if cf.Hash != cpf.Hash {
		t.Skip("refinement did not discretize this instance; no transfer to test")
	}
	// Color the original, express in canonical space, pull back onto the
	// permuted instance, and check it is proper there.
	col := GreedyColorAny(f.G)
	canonCol := make([]int, len(col))
	for v, c := range col {
		canonCol[cf.Perm[v]] = c
	}
	back := make(Coloring, len(col))
	for v := range back {
		back[v] = canonCol[cpf.Perm[v]]
	}
	for _, e := range pf.G.Edges() {
		if back[e[0]] == back[e[1]] {
			t.Fatalf("transferred coloring improper on edge %v", e)
		}
	}
}

// GreedyColorAny is a test helper: first-fit coloring with as many colors
// as needed (ignores precoloring; only properness matters here).
func GreedyColorAny(g *Graph) Coloring {
	col := make(Coloring, g.N())
	for v := range col {
		col[v] = NoColor
	}
	for v := 0; v < g.N(); v++ {
		used := map[int]bool{}
		g.ForEachNeighbor(V(v), func(w V) {
			if col[w] != NoColor {
				used[col[w]] = true
			}
		})
		c := 0
		for used[c] {
			c++
		}
		col[v] = c
	}
	return col
}
