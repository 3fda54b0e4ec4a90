package graph

import (
	"math/rand"
	"strings"
	"testing"
)

func TestReadDIMACS(t *testing.T) {
	src := `c a comment
p edge 4 3
e 1 2
e 2 3
e 3 4
c regcoal move 1 3 7
`
	g, err := ReadDIMACS(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.E() != 3 {
		t.Fatalf("n=%d e=%d", g.N(), g.E())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(2, 3) {
		t.Fatal("edges wrong")
	}
	if g.NumAffinities() != 1 || g.Affinities()[0].Weight != 7 {
		t.Fatalf("moves wrong: %v", g.Affinities())
	}
}

func TestDIMACSRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := RandomER(rng, 15, 0.3)
	SprinkleAffinities(rng, g, 8, 9)
	var b strings.Builder
	if err := WriteDIMACS(&b, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDIMACS(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != g.N() || back.E() != g.E() || back.NumAffinities() != g.NumAffinities() {
		t.Fatalf("round trip changed shape: %d/%d, %d/%d, %d/%d",
			back.N(), g.N(), back.E(), g.E(), back.NumAffinities(), g.NumAffinities())
	}
	for _, e := range g.Edges() {
		if !back.HasEdge(e[0], e[1]) {
			t.Fatalf("edge %v lost", e)
		}
	}
	if back.TotalAffinityWeight() != g.TotalAffinityWeight() {
		t.Fatal("weights lost")
	}
}

// TestDIMACSFileRoundTripBytes is the corpus round-trip regression test:
// write → read → write must be byte-identical, with the register count,
// names, precoloring and moves-as-comments all surviving. This held for
// bare graphs but not for Files before WriteDIMACSFile existed (K, names
// and precolors were silently dropped).
func TestDIMACSFileRoundTripBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		g := RandomER(rng, 2+rng.Intn(25), 0.25)
		SprinkleAffinities(rng, g, rng.Intn(12), 9)
		if trial%2 == 0 {
			g.SetName(0, "entry")
			g.SetName(V(g.N()-1), "exit")
		}
		if trial%3 == 0 && g.N() > 1 {
			g.SetPrecolored(0, 0)
			g.SetPrecolored(1, 2)
			// Parallel and zero-weight affinities must survive too.
			g.AddAffinity(0, 1, 4)
			g.AddAffinity(0, 1, 4)
			g.AddAffinity(0, 1, 0)
		}
		f := &File{G: g, K: trial % 7} // includes K == 0 (no k line)
		var first strings.Builder
		if err := WriteDIMACSFile(&first, f); err != nil {
			t.Fatal(err)
		}
		back, err := ReadDIMACSFile(strings.NewReader(first.String()), 0)
		if err != nil {
			t.Fatalf("trial %d: read back: %v\n%s", trial, err, first.String())
		}
		var second strings.Builder
		if err := WriteDIMACSFile(&second, back); err != nil {
			t.Fatal(err)
		}
		if first.String() != second.String() {
			t.Fatalf("trial %d: write→read→write not byte-identical:\n--- first ---\n%s--- second ---\n%s",
				trial, first.String(), second.String())
		}
		if !EqualFiles(f, back) {
			t.Fatalf("trial %d: round trip lost semantic content", trial)
		}
	}
}

// Names whose whitespace cannot survive the Fields-rejoin of the reader
// must be refused at write time instead of silently breaking the
// round-trip guarantee.
func TestDIMACSFileRejectsBadNames(t *testing.T) {
	for _, bad := range []string{"a  b", " lead", "trail ", "two\nlines", "tab\tname"} {
		g := New(2)
		g.SetName(0, bad)
		var b strings.Builder
		if err := WriteDIMACSFile(&b, &File{G: g, K: 2}); err == nil {
			t.Errorf("WriteDIMACSFile accepted name %q", bad)
		}
	}
	// A single internal space is fine and round-trips.
	g := New(2)
	g.SetName(0, "a b")
	var b strings.Builder
	if err := WriteDIMACSFile(&b, &File{G: g, K: 2}); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDIMACSFile(strings.NewReader(b.String()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if back.G.Name(0) != "a b" {
		t.Fatalf("name = %q", back.G.Name(0))
	}
}

func TestDIMACSFileComments(t *testing.T) {
	src := `p edge 3 2
c regcoal k 4
c regcoal name 1 a b
c regcoal color 2 1
c regcoal move 1 3 7
e 1 2
e 2 3
`
	f, err := ReadDIMACSFile(strings.NewReader(src), 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.K != 4 {
		t.Fatalf("K = %d, want 4", f.K)
	}
	if f.G.Name(0) != "a b" {
		t.Fatalf("name = %q, want %q", f.G.Name(0), "a b")
	}
	if c, ok := f.G.Precolored(1); !ok || c != 1 {
		t.Fatalf("precolor = %d,%v, want 1,true", c, ok)
	}
	if f.G.NumAffinities() != 1 || f.G.Affinities()[0].Weight != 7 {
		t.Fatalf("moves wrong: %v", f.G.Affinities())
	}
}

func TestReadDIMACSErrors(t *testing.T) {
	cases := []string{
		"e 1 2\n",                            // edge before p
		"p edge 2 1\np edge 2 1\n",           // duplicate p
		"p edge x 1\n",                       // bad count
		"p edge 2 1\ne 1\n",                  // short edge
		"p edge 2 1\ne 1 3\n",                // out of range
		"p edge 2 1\ne 1 1\n",                // self loop
		"p edge 2 0\nc regcoal move 1 5 2\n", // bad move target
		"q foo\n",                            // unknown record
		"",                                   // no p line
		"c regcoal k 4\np edge 2 0\n",        // regcoal comment before p
		"p edge 2 0\nc regcoal k x\n",        // bad register count
		"p edge 2 0\nc regcoal name 3 a\n",   // name target out of range
		"p edge 2 0\nc regcoal color 1 -1\n", // negative precolor
		"p edge 2 0\nc regcoal frob 1\n",     // unknown regcoal comment
	}
	for _, c := range cases {
		if _, err := ReadDIMACS(strings.NewReader(c)); err == nil {
			t.Errorf("ReadDIMACS(%q) should fail", c)
		}
	}
}
