package graph

import (
	"math/rand"
	"testing"
)

// Microbenchmarks for the hybrid graph core: the four substrate
// operations that dominate the solver kernels of cmd/bench -perf (see
// docs/PERFORMANCE.md). Run via `go test -bench=. ./internal/graph`;
// CI's bench-smoke job compiles and executes them once per push.

func benchGraph(b *testing.B, n int, p float64) *Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	g := RandomER(rng, n, p)
	b.ReportAllocs()
	b.ResetTimer()
	return g
}

func BenchmarkHasEdgeDense(b *testing.B) {
	g := benchGraph(b, 512, 0.5)
	for i := 0; i < b.N; i++ {
		u := V(i & 511)
		v := V((i >> 9) & 511)
		if u != v {
			g.HasEdge(u, v)
		}
	}
}

func BenchmarkForEachNeighborDense(b *testing.B) {
	g := benchGraph(b, 512, 0.5)
	sum := 0
	for i := 0; i < b.N; i++ {
		g.ForEachNeighbor(V(i&511), func(w V) { sum += int(w) })
	}
	_ = sum
}

func BenchmarkMaskedDegreeDense(b *testing.B) {
	g := benchGraph(b, 512, 0.5)
	mask := NewBits(512)
	for v := 0; v < 512; v += 2 {
		mask.Set(V(v))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.MaskedDegree(V(i&511), mask)
	}
}

func BenchmarkCloneDense(b *testing.B) {
	g := benchGraph(b, 512, 0.5)
	for i := 0; i < b.N; i++ {
		g.Clone()
	}
}

func BenchmarkAddEdgeBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	proto := RandomER(rng, 512, 0.5)
	edges := proto.Edges()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := New(512)
		for _, e := range edges {
			h.AddEdge(e[0], e[1])
		}
	}
}

// canonSink keeps the canonical-form benchmark's result live.
var canonSink *Canonical

// BenchmarkCanonicalForm prices the cache key every solve request pays,
// hit or miss: "hot" is sized like servebench's hot mix (~40 vertices,
// ~190 edges, ~30 moves), "dense300" like cmd/bench -perf's
// canon/dense300-p50. The -verify variants price what a cluster worker
// pays instead for the form its router forwarded: VerifyCanonical of the
// same graph's form.
func BenchmarkCanonicalForm(b *testing.B) {
	for _, c := range []struct {
		name   string
		n      int
		p      float64
		moves  int
		weight int
	}{
		{"hot", 40, 0.245, 30, 50},
		{"dense300", 300, 0.50, 150, 8},
	} {
		rng := rand.New(rand.NewSource(42))
		g := RandomER(rng, c.n, c.p)
		SprinkleAffinities(rng, g, c.moves, c.weight)
		g.SetPrecolored(0, 0)
		f := &File{G: g, K: 8}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				canonSink = CanonicalForm(f)
			}
		})
		form := CanonicalForm(f)
		b.Run(c.name+"-verify", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if canonSink = VerifyCanonical(f, form.Hash, form.Perm); canonSink == nil {
					b.Fatal("the computed form does not verify")
				}
			}
		})
	}
}

// quotientSink keeps the quotient benchmark's result live.
var quotientSink *Graph

// BenchmarkQuotient prices one coalesced-graph build, which the brute
// conservative test, optimistic de-coalescing and the exact search pay
// once per probe: "hot" is sized like servebench's hot mix (40
// vertices, 201 edges, 30 moves; 23 classes), "dense300" is 300 vertices
// at density 0.3 with 150 moves (13 565 edges; 192 classes). The
// partition is the aggressive sweep's.
func BenchmarkQuotient(b *testing.B) {
	for _, c := range []struct {
		name   string
		n      int
		p      float64
		moves  int
		weight int
	}{
		{"hot", 40, 0.245, 30, 50},
		{"dense300", 300, 0.3, 150, 8},
	} {
		rng := rand.New(rand.NewSource(42))
		g := RandomER(rng, c.n, c.p)
		SprinkleAffinities(rng, g, c.moves, c.weight)
		g.SetPrecolored(0, 0)
		p := MergeAll(g)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q, _, err := Quotient(g, p)
				if err != nil {
					b.Fatal(err)
				}
				quotientSink = q
			}
		})
	}
}
