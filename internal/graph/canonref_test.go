package graph_test

// Byte-identity differential for CanonicalForm: the arena-based kernel
// must return the same Hash and Perm as the string-signature
// implementation it replaced, retained below as v1CanonicalForm. The
// hash is a cache key, a ring position and a delta session's base_hash,
// so any drift would split routers and workers of different builds (see
// the regcoal-canon-v1 contract in canon.go).

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"regcoal/internal/corpus"
	"regcoal/internal/graph"
)

// v1CanonicalForm is the regcoal-canon-v1 reference: per-vertex
// signature strings ranked through a map and sort.Strings, and the
// serialization written with fmt. It also reports the number of final
// classes, so tests can show they reach the multi-digit class numbers
// where byte order and numeric order disagree.
func v1CanonicalForm(f *graph.File) (hash string, perm []graph.V, classes int) {
	g := f.G
	n := g.N()

	type affNb struct {
		w  int64
		nb graph.V
	}
	affAdj := make([][]affNb, n)
	for _, a := range g.Affinities() {
		affAdj[a.X] = append(affAdj[a.X], affNb{a.Weight, a.Y})
		if a.X != a.Y {
			affAdj[a.Y] = append(affAdj[a.Y], affNb{a.Weight, a.X})
		}
	}

	sigs := make([]string, n)
	for v := 0; v < n; v++ {
		pc := graph.NoColor
		if c, ok := g.Precolored(graph.V(v)); ok {
			pc = c
		}
		var b strings.Builder
		fmt.Fprintf(&b, "p%d d%d", pc, g.Degree(graph.V(v)))
		ws := make([]int64, 0, len(affAdj[v]))
		for _, an := range affAdj[v] {
			ws = append(ws, an.w)
		}
		sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
		for _, w := range ws {
			fmt.Fprintf(&b, " w%d", w)
		}
		sigs[v] = b.String()
	}
	colors := v1Rank(sigs)
	distinct := v1CountDistinct(colors)

	for round := 0; round < n; round++ {
		next := make([]string, n)
		for v := 0; v < n; v++ {
			var nbColors []int
			g.ForEachNeighbor(graph.V(v), func(w graph.V) {
				nbColors = append(nbColors, colors[w])
			})
			sort.Ints(nbColors)
			var affSigs []string
			for _, an := range affAdj[v] {
				affSigs = append(affSigs, strconv.FormatInt(an.w, 10)+":"+strconv.Itoa(colors[an.nb]))
			}
			sort.Strings(affSigs)
			var b strings.Builder
			fmt.Fprintf(&b, "c%d|", colors[v])
			for _, c := range nbColors {
				fmt.Fprintf(&b, " %d", c)
			}
			b.WriteString("|")
			for _, s := range affSigs {
				b.WriteString(" " + s)
			}
			next[v] = b.String()
		}
		colors = v1Rank(next)
		d := v1CountDistinct(colors)
		if d == distinct {
			break
		}
		distinct = d
	}

	order := make([]graph.V, n)
	for i := range order {
		order[i] = graph.V(i)
	}
	sort.Slice(order, func(i, j int) bool {
		if colors[order[i]] != colors[order[j]] {
			return colors[order[i]] < colors[order[j]]
		}
		return order[i] < order[j]
	})
	perm = make([]graph.V, n)
	for pos, v := range order {
		perm[v] = graph.V(pos)
	}
	return v1Hash(f, perm), perm, v1CountDistinct(colors)
}

// v1Hash is the reference serialization of f under perm, a permutation
// of its vertices, hashed: the hex SHA-256 a canonical form's Hash must
// be.
func v1Hash(f *graph.File, perm []graph.V) string {
	g := f.G
	n := g.N()
	order := make([]graph.V, n)
	for v, pos := range perm {
		order[pos] = graph.V(v)
	}
	h := sha256.New()
	fmt.Fprintf(h, "regcoal-canon-v1\nn %d\nk %d\n", n, f.K)
	for pos, v := range order {
		if c, ok := g.Precolored(v); ok {
			fmt.Fprintf(h, "p %d %d\n", pos, c)
		}
	}
	edges := make([][2]graph.V, 0, g.E())
	for _, e := range g.Edges() {
		a, b := perm[e[0]], perm[e[1]]
		if a > b {
			a, b = b, a
		}
		edges = append(edges, [2]graph.V{a, b})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	for _, e := range edges {
		fmt.Fprintf(h, "e %d %d\n", int(e[0]), int(e[1]))
	}
	affs := make([]graph.Affinity, 0, g.NumAffinities())
	for _, a := range g.Affinities() {
		affs = append(affs, graph.Affinity{X: perm[a.X], Y: perm[a.Y], Weight: a.Weight}.Canon())
	}
	graph.SortAffinities(affs)
	for _, a := range affs {
		fmt.Fprintf(h, "a %d %d %d\n", int(a.X), int(a.Y), a.Weight)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// v1Rank numbers signatures densely in sorted string order.
func v1Rank(sigs []string) []int {
	seen := make(map[string]bool, len(sigs))
	var uniq []string
	for _, s := range sigs {
		if !seen[s] {
			seen[s] = true
			uniq = append(uniq, s)
		}
	}
	sort.Strings(uniq)
	rank := make(map[string]int, len(uniq))
	for i, s := range uniq {
		rank[s] = i
	}
	out := make([]int, len(sigs))
	for i, s := range sigs {
		out[i] = rank[s]
	}
	return out
}

func v1CountDistinct(xs []int) int {
	seen := make(map[int]bool, len(xs))
	for _, x := range xs {
		seen[x] = true
	}
	return len(seen)
}

// checkV1 asserts CanonicalForm(f) equals the reference and returns the
// reference's class count.
func checkV1(t *testing.T, name string, f *graph.File) int {
	t.Helper()
	hash, perm, classes := v1CanonicalForm(f)
	c := graph.CanonicalForm(f)
	if c.Hash != hash {
		t.Fatalf("%s: hash %s, v1 reference %s", name, c.Hash, hash)
	}
	if !slices.Equal(c.Perm, perm) {
		t.Fatalf("%s: perm %v, v1 reference %v", name, c.Perm, perm)
	}
	return classes
}

// TestCanonicalFormMatchesV1Corpus covers every corpus family at the
// serving benchmark's corpus seed, indices 0-15 (the hot mix is indices
// 0-15 of six of them), each as generated and relabeled.
func TestCanonicalFormMatchesV1Corpus(t *testing.T) {
	rng := rand.New(rand.NewSource(2007))
	p := corpus.Params{Seed: 2007}
	for _, fam := range corpus.Families() {
		for i := 0; i < 16; i++ {
			inst, err := fam.Generate(p, i)
			if err != nil {
				t.Fatal(err)
			}
			checkV1(t, inst.Name, inst.File)
			checkV1(t, inst.Name+"/relabeled", graph.PermuteFile(inst.File, graph.RandomPerm(rng, inst.File.G.N())))
		}
	}
}

// TestCanonicalFormMatchesV1Random covers precolors, parallel affinities
// and self-affinities, multi-digit weights, and class counts past 10 and
// 100, where classes rank by the string order of their decimal
// signatures ("c10|" before "c2|") and the round that finds the
// partition stable re-ranks it.
func TestCanonicalFormMatchesV1Random(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	maxClasses := 0
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(40)
		if trial%10 == 0 {
			n = 100 + rng.Intn(60)
		}
		g := graph.RandomER(rng, n, 0.05+0.4*rng.Float64())
		for i := rng.Intn(2 * n); i > 0; i-- {
			u, v := graph.V(rng.Intn(n)), graph.V(rng.Intn(n))
			w := int64(rng.Intn(120))
			g.AddAffinity(u, v, w)
			if rng.Intn(4) == 0 {
				g.AddAffinity(u, v, w) // parallel
			}
			if rng.Intn(6) == 0 {
				g.AddAffinity(u, u, w) // self
			}
		}
		k := 2 + rng.Intn(8)
		for i := rng.Intn(4); i > 0; i-- {
			g.SetPrecolored(graph.V(rng.Intn(n)), rng.Intn(k))
		}
		f := &graph.File{G: g, K: k}
		name := fmt.Sprintf("trial %d (n=%d)", trial, n)
		maxClasses = max(maxClasses, checkV1(t, name, f))
		checkV1(t, name+"/relabeled", graph.PermuteFile(f, graph.RandomPerm(rng, n)))
	}
	if maxClasses < 100 {
		t.Fatalf("random graphs reached at most %d classes, want >= 100", maxClasses)
	}
}

// TestCanonicalFormMatchesV1Symmetric covers graphs refinement cannot
// discretize, where ties break by original index: the empty and
// one-vertex graphs, edgeless graphs, cycles and cliques (with and
// without a uniform affinity on every edge), and a path long enough to
// reach 10 classes.
func TestCanonicalFormMatchesV1Symmetric(t *testing.T) {
	files := map[string]*graph.File{}
	for _, n := range []int{0, 1, 2, 5, 12} {
		files[fmt.Sprintf("edgeless%d", n)] = &graph.File{G: graph.New(n), K: 3}
	}
	for _, n := range []int{3, 4, 7, 12, 25} {
		cycle, clique, path := graph.New(n), graph.New(n), graph.New(n)
		for v := 0; v < n; v++ {
			cycle.AddEdge(graph.V(v), graph.V((v+1)%n))
			if v+1 < n {
				path.AddEdge(graph.V(v), graph.V(v+1))
			}
		}
		vs := clique.Vertices()
		clique.AddClique(vs...)
		files[fmt.Sprintf("cycle%d", n)] = &graph.File{G: cycle, K: 3}
		files[fmt.Sprintf("clique%d", n)] = &graph.File{G: clique, K: n}
		files[fmt.Sprintf("path%d", n)] = &graph.File{G: path, K: 2}
		moves := cycle.Clone()
		for v := 0; v < n; v++ {
			moves.AddAffinity(graph.V(v), graph.V((v+2)%n), 7)
		}
		files[fmt.Sprintf("cycle%d+moves", n)] = &graph.File{G: moves, K: 3}
	}
	one := graph.New(1)
	one.SetPrecolored(0, 2)
	one.AddAffinity(0, 0, 4)
	files["one-precolored-selfmove"] = &graph.File{G: one, K: 3}

	maxClasses := 0
	for name, f := range files {
		maxClasses = max(maxClasses, checkV1(t, name, f))
	}
	if maxClasses < 10 {
		t.Fatalf("symmetric graphs reached at most %d classes, want >= 10", maxClasses)
	}
}

// fuzzFile decodes bytes into an instance: n and k from the first two
// bytes, then 3-byte records adding an edge, an affinity (self and
// parallel ones included) or a precolor.
func fuzzFile(data []byte) *graph.File {
	if len(data) < 2 {
		return &graph.File{G: graph.New(0), K: 1}
	}
	n := int(data[0]) % 48
	k := int(data[1])%8 + 1
	g := graph.New(n)
	for i := 2; n > 0 && i+2 < len(data); i += 3 {
		u, v := graph.V(int(data[i+1])%n), graph.V(int(data[i+2])%n)
		switch data[i] % 4 {
		case 0, 1:
			if u != v {
				g.AddEdge(u, v)
			}
		case 2:
			g.AddAffinity(u, v, int64(data[i]/4))
		case 3:
			g.SetPrecolored(u, int(data[i+2])%k)
		}
	}
	return &graph.File{G: g, K: k}
}

// FuzzCanonicalForm checks CanonicalForm against the v1 reference on
// decoded instances. Run with `go test -fuzz FuzzCanonicalForm
// ./internal/graph`; under plain `go test` the seeds run as unit tests.
func FuzzCanonicalForm(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 3})
	f.Add([]byte{1, 3, 2, 0, 0, 3, 0, 2})                                 // one vertex, self-affinity, precolor
	f.Add([]byte{4, 2, 0, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 0})               // 4-cycle
	f.Add([]byte{3, 5, 0, 0, 1, 0, 1, 2, 0, 2, 0, 42, 0, 1, 42, 0, 1})    // triangle, parallel moves
	f.Add([]byte{6, 4, 0, 0, 1, 254, 2, 3, 38, 4, 5, 250, 1, 4, 7, 5, 1}) // weights 63, 9, 62
	f.Add([]byte{20, 7, 0, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0, 4, 5, 0, 5, 6, 0, 6, 7,
		0, 7, 8, 0, 8, 9, 0, 9, 10, 0, 10, 11, 0, 11, 12, 0, 12, 13, 0, 13, 14,
		0, 14, 15, 0, 15, 16, 0, 16, 17, 0, 17, 18, 0, 18, 19, 3, 0, 1}) // 20-path, 10+ classes
	f.Fuzz(func(t *testing.T, data []byte) {
		checkV1(t, fmt.Sprintf("%v", data), fuzzFile(data))
	})
}

// FuzzVerifyCanonical checks VerifyCanonical on decoded instances: the
// form CanonicalForm computes always verifies to itself, and a form
// mutated by the second input (entries swapped, overwritten, dropped or
// added, hash digits changed) verifies exactly when its perm is a
// permutation and the v1 reference serialization under it hashes to its
// hash. Run with `go test -run '^$' -fuzz FuzzVerifyCanonical
// ./internal/graph`; under plain `go test` the seeds run as unit tests.
func FuzzVerifyCanonical(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 3}, []byte{1, 0, 9})                                                   // one vertex, entry overwritten out of range
	f.Add([]byte{1, 3, 2, 0, 0, 3, 0, 2}, []byte{2, 0, 0})                                 // one vertex, perm dropped to empty
	f.Add([]byte{4, 2, 0, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 0}, []byte{0, 0, 2})               // 4-cycle, automorphic swap
	f.Add([]byte{4, 2, 0, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 0}, []byte{0, 0, 1})               // 4-cycle, swap of neighbors
	f.Add([]byte{5, 3}, []byte{0, 1, 4, 0, 2, 3})                                          // edgeless: every swap verifies
	f.Add([]byte{3, 5, 0, 0, 1, 0, 1, 2, 0, 2, 0, 42, 0, 1, 42, 0, 1}, []byte{1, 2, 8})    // duplicate entry
	f.Add([]byte{6, 4, 0, 0, 1, 254, 2, 3, 38, 4, 5, 250, 1, 4, 7, 5, 1}, []byte{3, 0, 0}) // an entry added
	f.Add([]byte{6, 4, 0, 0, 1, 254, 2, 3, 38, 4, 5, 250, 1, 4, 7, 5, 1}, []byte{4, 7, 3}) // a hash digit changed
	f.Add([]byte{6, 4, 0, 0, 1, 254, 2, 3, 38, 4, 5, 250, 1, 4, 7, 5, 1}, []byte{5, 0, 0}) // hash upper-cased
	f.Add([]byte{6, 4, 0, 0, 1, 254, 2, 3, 38, 4, 5, 250, 1, 4, 7, 5, 1}, []byte{1, 3, 0}) // negative entry
	f.Fuzz(func(t *testing.T, data, mutation []byte) {
		file := fuzzFile(data)
		want := graph.CanonicalForm(file)
		own := graph.VerifyCanonical(file, want.Hash, slices.Clone(want.Perm))
		if own == nil || own.Hash != want.Hash || !slices.Equal(own.Perm, want.Perm) {
			t.Fatalf("%v: the computed form %s %v does not verify to itself: %v", data, want.Hash, want.Perm, own)
		}
		hash, perm := want.Hash, slices.Clone(want.Perm)
		for i := 0; i+2 < len(mutation); i += 3 {
			a, b := int(mutation[i+1]), int(mutation[i+2])
			switch mutation[i] % 6 {
			case 0:
				if len(perm) > 0 {
					a, b = a%len(perm), b%len(perm)
					perm[a], perm[b] = perm[b], perm[a]
				}
			case 1:
				if len(perm) > 0 {
					perm[a%len(perm)] = graph.V(b - 8)
				}
			case 2:
				if len(perm) > 0 {
					perm = perm[:len(perm)-1]
				}
			case 3:
				perm = append(perm, graph.V(b))
			case 4:
				hx := []byte(hash)
				hx[a%len(hx)] = "0123456789abcdef"[b%16]
				hash = string(hx)
			case 5:
				hash = strings.ToUpper(hash)
			}
		}
		accept := isPermutation(perm, file.G.N()) && v1Hash(file, perm) == hash
		got := graph.VerifyCanonical(file, hash, perm)
		if (got != nil) != accept {
			t.Fatalf("%v mutated by %v: VerifyCanonical(%s, %v) = %v, reference accepts: %v", data, mutation, hash, perm, got, accept)
		}
		if got != nil && (got.Hash != hash || !slices.Equal(got.Perm, perm)) {
			t.Fatalf("%v mutated by %v: verified form %s %v, sent %s %v", data, mutation, got.Hash, got.Perm, hash, perm)
		}
	})
}

// isPermutation reports whether perm holds each of 0..n-1 exactly once.
func isPermutation(perm []graph.V, n int) bool {
	if len(perm) != n {
		return false
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || int(p) >= n || seen[p] {
			return false
		}
		seen[p] = true
	}
	return true
}
