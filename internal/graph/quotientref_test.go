package graph_test

// Differential for Quotient: the linear-time construction must build the
// same quotient as the map-based one it replaced, retained below as
// refQuotient — the same vertex and edge counts, bitset, neighbor
// slices, names, precolors, affinity list, vertex map and error text.
// Every strategy that judges a coalescing judges it on that quotient, so
// any drift would change answers.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"regcoal/internal/coalesce"
	"regcoal/internal/corpus"
	"regcoal/internal/graph"
)

// refClasses is the reference Partition.Classes: classes gathered in a
// map keyed by root, each sorted, then sorted by smallest member.
func refClasses(p *graph.Partition) [][]graph.V {
	byRoot := make(map[graph.V][]graph.V)
	for i := 0; i < p.N(); i++ {
		r := p.Find(graph.V(i))
		byRoot[r] = append(byRoot[r], graph.V(i))
	}
	classes := make([][]graph.V, 0, len(byRoot))
	for _, c := range byRoot {
		sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i][0] < classes[j][0] })
	return classes
}

// refQuotient is the reference Quotient: classes from refClasses, the
// precolors checked class by class, one AddEdge per edge of g in
// Edges order, parallel affinities merged through a map and sorted.
func refQuotient(g *graph.Graph, p *graph.Partition) (*graph.Graph, []graph.V, error) {
	if p.N() != g.N() {
		return nil, nil, fmt.Errorf("graph: partition over %d vertices does not match graph with %d vertices", p.N(), g.N())
	}
	classes := refClasses(p)
	old2new := make([]graph.V, g.N())
	q := graph.New(len(classes))
	for i, class := range classes {
		for _, v := range class {
			old2new[v] = graph.V(i)
		}
		if g.HasName(class[0]) {
			q.SetName(graph.V(i), g.Name(class[0]))
		}
		for _, v := range class {
			c, ok := g.Precolored(v)
			if !ok {
				continue
			}
			if prev, seen := q.Precolored(graph.V(i)); seen && prev != c {
				return nil, nil, fmt.Errorf("graph: class %v merges precolors %d and %d", class, prev, c)
			}
			q.SetPrecolored(graph.V(i), c)
		}
	}
	for _, e := range g.Edges() {
		a, b := old2new[e[0]], old2new[e[1]]
		if a == b {
			return nil, nil, fmt.Errorf("graph: vertices %d and %d interfere but share a class", int(e[0]), int(e[1]))
		}
		q.AddEdge(a, b)
	}
	merged := make(map[[2]graph.V]int64)
	for _, a := range g.Affinities() {
		x, y := old2new[a.X], old2new[a.Y]
		if x == y {
			continue // coalesced
		}
		if x > y {
			x, y = y, x
		}
		merged[[2]graph.V{x, y}] += a.Weight
	}
	affs := make([]graph.Affinity, 0, len(merged))
	for pair, w := range merged {
		affs = append(affs, graph.Affinity{X: pair[0], Y: pair[1], Weight: w})
	}
	graph.SortAffinities(affs)
	for _, a := range affs {
		q.AddAffinity(a.X, a.Y, a.Weight)
	}
	return q, old2new, nil
}

// checkQuotient asserts that Quotient and refQuotient agree on g and p,
// field for field or on the error text, and that Classes agrees with
// refClasses. It returns the reference's error.
func checkQuotient(t *testing.T, name string, g *graph.Graph, p *graph.Partition) error {
	t.Helper()
	if got, want := p.Clone().Classes(), refClasses(p.Clone()); !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("%s: classes %v, reference %v", name, got, want)
	}
	want, wmap, werr := refQuotient(g, p.Clone())
	got, gmap, err := graph.Quotient(g, p.Clone())
	if werr != nil {
		if err == nil || err.Error() != werr.Error() {
			t.Fatalf("%s: error %v, reference %v", name, err, werr)
		}
		if got != nil || gmap != nil {
			t.Fatalf("%s: error %v came with a quotient", name, err)
		}
		return werr
	}
	if err != nil {
		t.Fatalf("%s: error %v, reference succeeds", name, err)
	}
	if d := graph.DiffGraphs(got, want); d != "" {
		t.Fatalf("%s: %s", name, d)
	}
	if !slices.Equal(gmap, wmap) {
		t.Fatalf("%s: vertex map %v, reference %v", name, gmap, wmap)
	}
	if verr := got.Validate(); verr != nil {
		t.Fatalf("%s: %v", name, verr)
	}
	return nil
}

// mergeSome unions up to m random vertex pairs of g into p, only those
// CanMerge accepts when filtered: a coalescing, or (unfiltered) a
// partition that may merge interfering or differently precolored
// vertices.
func mergeSome(rng *rand.Rand, g *graph.Graph, p *graph.Partition, m int, filtered bool) {
	n := g.N()
	if n == 0 {
		return
	}
	for ; m > 0; m-- {
		u, v := graph.V(rng.Intn(n)), graph.V(rng.Intn(n))
		if !filtered || graph.CanMerge(g, p, u, v) {
			p.Union(u, v)
		}
	}
}

// TestQuotientMatchesRefCorpus covers every corpus family at the serving
// benchmark's corpus seed, with the partition every registered strategy
// returns and with random CanMerge-filtered unions.
func TestQuotientMatchesRefCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	params := corpus.Params{Seed: 2007, Quick: true}
	for _, fam := range corpus.Families() {
		for i := 0; i < fam.Size(true); i++ {
			inst, err := fam.Generate(params, i)
			if err != nil {
				t.Fatal(err)
			}
			g, k := inst.File.G, inst.File.K
			for _, s := range coalesce.Strategies() {
				res, err := s.Run(context.Background(), g, k)
				if err != nil {
					continue // inapplicable to this instance
				}
				if werr := checkQuotient(t, inst.Name+"/"+s.Name, g, res.P); werr != nil {
					t.Fatalf("%s/%s returned a partition that is no coalescing: %v", inst.Name, s.Name, werr)
				}
			}
			for trial := 0; trial < 3; trial++ {
				p := graph.NewPartition(g.N())
				mergeSome(rng, g, p, g.N(), true)
				checkQuotient(t, fmt.Sprintf("%s/merged%d", inst.Name, trial), g, p)
			}
		}
	}
}

// randomQuotientGraph draws a graph with some named vertices, a few
// precolors, and affinities that include parallel, self and zero-weight
// ones.
func randomQuotientGraph(rng *rand.Rand) *graph.Graph {
	n := rng.Intn(60)
	if rng.Intn(8) == 0 {
		n = 64 + rng.Intn(100) // past one bitset word per row
	}
	g := graph.RandomER(rng, n, 0.3*rng.Float64())
	if n == 0 {
		return g
	}
	for v := 0; v < n; v++ {
		if rng.Intn(3) == 0 {
			g.SetName(graph.V(v), fmt.Sprintf("x%d", v))
		}
	}
	for i := rng.Intn(6); i > 0; i-- {
		g.SetPrecolored(graph.V(rng.Intn(n)), rng.Intn(3))
	}
	for i := rng.Intn(2 * n); i > 0; i-- {
		u, v := graph.V(rng.Intn(n)), graph.V(rng.Intn(n))
		w := int64(rng.Intn(5))
		g.AddAffinity(u, v, w)
		switch rng.Intn(6) {
		case 0:
			g.AddAffinity(v, u, w+1) // parallel, reversed
		case 1:
			g.AddAffinity(u, u, w) // self
		}
	}
	return g
}

// TestQuotientMatchesRefRandom covers coalescings and partitions that are
// none: classes that contain an interference or two precolors, and a
// partition of the wrong size. Every outcome must occur.
func TestQuotientMatchesRefRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	outcomes := map[string]int{}
	for trial := 0; trial < 600; trial++ {
		g := randomQuotientGraph(rng)
		p := graph.NewPartition(g.N())
		mergeSome(rng, g, p, rng.Intn(g.N()+1), true)
		switch trial % 3 {
		case 1:
			mergeSome(rng, g, p, 1+rng.Intn(3), false)
		case 2:
			var pinned []graph.V
			for v := 0; v < g.N(); v++ {
				if _, ok := g.Precolored(graph.V(v)); ok {
					pinned = append(pinned, graph.V(v))
				}
			}
			if len(pinned) > 1 {
				p.Union(pinned[rng.Intn(len(pinned))], pinned[rng.Intn(len(pinned))])
			}
		}
		err := checkQuotient(t, fmt.Sprintf("trial %d (n=%d)", trial, g.N()), g, p)
		switch {
		case err == nil:
			outcomes["ok"]++
		case strings.Contains(err.Error(), "interfere"):
			outcomes["interference"]++
		case strings.Contains(err.Error(), "precolors"):
			outcomes["precolors"]++
		default:
			t.Fatalf("trial %d: unexpected error %v", trial, err)
		}
	}
	for _, o := range []string{"ok", "interference", "precolors"} {
		if outcomes[o] < 10 {
			t.Fatalf("outcomes %v: want at least 10 %s", outcomes, o)
		}
	}
	if err := checkQuotient(t, "size mismatch", graph.New(3), graph.NewPartition(4)); err == nil {
		t.Fatal("a partition of the wrong size was accepted")
	}
}

// TestQuotientErrorOrder pins which fault a partition with several is
// reported by: a precolor conflict before any interference, the conflict
// of the class with the smallest member even when another class's comes
// first in vertex order, and within a class its first precolor against
// the first that differs.
func TestQuotientErrorOrder(t *testing.T) {
	g := graph.New(12)
	for v, c := range map[graph.V]int{0: 1, 10: 2, 1: 3, 2: 4, 4: 5, 6: 5, 8: 6, 9: 7} {
		g.SetPrecolored(v, c)
	}
	g.AddEdge(3, 5)
	p := graph.NewPartition(12)
	for _, pair := range [][2]graph.V{{3, 5}, {10, 0}, {2, 1}, {4, 6}, {6, 8}, {8, 9}} {
		p.Union(pair[0], pair[1])
	}
	const want = "graph: class [0 10] merges precolors 1 and 2"
	if err := checkQuotient(t, "several faults", g, p); err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
	p = graph.NewPartition(12)
	p.Union(3, 5)
	p.Union(4, 8)
	p.Union(6, 9)
	p.Union(9, 4)
	const want2 = "graph: class [4 6 8 9] merges precolors 5 and 6"
	if err := checkQuotient(t, "one class, three colors", g, p); err == nil || err.Error() != want2 {
		t.Fatalf("error %v, want %q", err, want2)
	}
}

// FuzzQuotient checks Quotient against refQuotient on an instance
// decoded by fuzzFile, with every third vertex named and the partition
// built by unioning the pairs the second input lists (interfering and
// differently precolored pairs included). Run with `go test -run '^$'
// -fuzz FuzzQuotient ./internal/graph`; under plain `go test` the seeds
// run as unit tests.
func FuzzQuotient(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 3, 2, 0, 0, 3, 0, 2}, []byte{0, 0})                                  // one vertex, self-affinity, precolor
	f.Add([]byte{4, 2, 0, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 0}, []byte{0, 2, 1, 3})          // 4-cycle folded to an edge
	f.Add([]byte{4, 2, 0, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 0}, []byte{0, 1})                // interfering class
	f.Add([]byte{3, 5, 0, 0, 1, 0, 1, 2, 0, 2, 0, 42, 0, 1, 42, 0, 1}, []byte{2, 2})     // parallel moves, discrete
	f.Add([]byte{6, 4, 0, 0, 1, 254, 2, 3, 38, 4, 5, 250, 1, 4, 7, 5, 1}, []byte{2, 4})  // weights 63, 9, 62
	f.Add([]byte{6, 4, 3, 1, 1, 3, 2, 2, 2, 1, 2, 2, 3, 1}, []byte{1, 2})                // precolor conflict
	f.Add([]byte{6, 4, 3, 1, 1, 3, 2, 2, 3, 4, 1, 3, 5, 2, 0, 4, 5}, []byte{4, 5, 1, 2}) // both conflicts
	f.Add([]byte{8, 3, 2, 0, 5, 2, 1, 5, 6, 2, 7, 0, 3, 4}, []byte{0, 1})                // parallel zero-weight moves merged
	f.Fuzz(func(t *testing.T, data, unions []byte) {
		g := fuzzFile(data).G
		n := g.N()
		for v := 0; v < n; v += 3 {
			g.SetName(graph.V(v), fmt.Sprintf("x%d", v))
		}
		p := graph.NewPartition(n)
		for i := 0; n > 0 && i+1 < len(unions); i += 2 {
			p.Union(graph.V(int(unions[i])%n), graph.V(int(unions[i+1])%n))
		}
		checkQuotient(t, fmt.Sprintf("%v / %v", data, unions), g, p)
	})
}
