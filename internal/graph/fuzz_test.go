package graph

import (
	"errors"
	"strings"
	"testing"
)

// Fuzz targets: the two parsers must never panic and, when they accept an
// input, must produce a graph that validates and survives a round trip;
// a read under a small vertex cap must agree with an uncapped one.
// Run with `go test -fuzz FuzzReadFrom ./internal/graph` for active
// fuzzing; under plain `go test` the seed corpus runs as unit tests.

// fuzzMaxVertices caps every read the fuzz targets make, so an input
// declaring millions of vertices is refused instead of exhausting memory.
const fuzzMaxVertices = 1 << 12

// checkCapped requires a read of input under a cap of 3 vertices to agree
// with one under fuzzMaxVertices: the same error when that fails, a
// *SizeError carrying its vertex and register counts when it has more
// than 3 vertices, and the same instance otherwise.
func checkCapped(t *testing.T, input string, read func(input string, maxVertices int) (*File, error)) {
	t.Helper()
	const limit = 3
	want, werr := read(input, fuzzMaxVertices)
	got, err := read(input, limit)
	var big *SizeError
	switch {
	case errors.As(werr, &big):
		// Too large for the reference read to build.
		if !errors.As(err, &big) || big.N != werr.(*SizeError).N {
			t.Fatalf("%q: capped read: %v, reference: %v", input, err, werr)
		}
	case werr != nil:
		if err == nil || err.Error() != werr.Error() {
			t.Fatalf("%q: capped read: %v, uncapped: %v", input, err, werr)
		}
	case want.G.N() > limit:
		if !errors.As(err, &big) || *big != (SizeError{N: want.G.N(), Limit: limit, K: want.K}) {
			t.Fatalf("%q: capped read: %v, want a size error for %d vertices, k %d", input, err, want.G.N(), want.K)
		}
	case err != nil || !EqualFiles(got, want):
		t.Fatalf("%q: capped read %v differs from the uncapped one", input, err)
	}
}

func FuzzReadFrom(f *testing.F) {
	f.Add("k 3\nnode a\nedge a b\nmove a b 2\n")
	f.Add("node x :1\nmove x y\n")
	f.Add("# comment only\n")
	f.Add("edge a a\n")
	f.Add("k -1\n")
	f.Add("move a b 99999999999999999999\n")
	f.Add("k 2\nnode a\nnode b\nedge c d\nnode e :1\nmove a e 3\n") // over the cap
	f.Add("node a\nnode b\nnode c\nnode d\nbogus\n")                // over the cap, then an error
	f.Fuzz(func(t *testing.T, input string) {
		checkCapped(t, input, func(input string, maxVertices int) (*File, error) {
			return ReadFrom(strings.NewReader(input), maxVertices)
		})
		file, err := ReadFrom(strings.NewReader(input), fuzzMaxVertices)
		if err != nil {
			return
		}
		if verr := file.G.Validate(); verr != nil {
			t.Fatalf("accepted graph fails validation: %v", verr)
		}
		// Round trip must re-parse.
		text := file.FormatString()
		back, err := ParseString(text)
		if err != nil {
			t.Fatalf("round trip failed: %v\n%s", err, text)
		}
		if back.G.N() != file.G.N() || back.G.E() != file.G.E() {
			t.Fatalf("round trip changed shape")
		}
	})
}

// FuzzReadFile targets the File-level DIMACS parser: no panic on any
// input, and every accepted file must validate, survive a write→read
// round trip semantically (EqualFiles), and re-serialize byte-identically
// — the canonical-output guarantee the persisted corpus relies on.
func FuzzReadFile(f *testing.F) {
	f.Add("p edge 3 2\nc regcoal k 4\ne 1 2\ne 2 3\n")
	f.Add("p edge 4 1\nc regcoal k 2\nc regcoal name 1 x\nc regcoal color 2 0\nc regcoal move 1 3 7\ne 1 2\n")
	f.Add("p edge 2 0\nc regcoal move 1 2 5\nc regcoal move 1 2 5\n") // parallel moves
	f.Add("p edge 0 0\n")
	f.Add("p edge 1 0\nc regcoal name 1 a b c\n")
	f.Add("p edge 2 1\ne 1 1\n")                // self-loop
	f.Add("p edge 99999999 0\n")                // allocation bomb
	f.Add("p edge 2 x\n")                       // bad edge count
	f.Add("c regcoal k 4\np edge 1 0\n")        // comment before p
	f.Add("p edge 2 0\nc regcoal color 1 -3\n") // bad precolor
	f.Add("p edge 2 0\nc regcoal move 1 2 99999999999999999999\n")
	f.Add("p edge 5 2\nc regcoal k 2\nc regcoal name 5 e\nc regcoal move 1 5 3\ne 1 2\ne 4 5\n") // over the cap
	f.Add("p edge 5 1\nc regcoal k 2\ne 1 6\n")                                                  // over the cap, then an error
	f.Add("p edge 5 0\np edge 2 0\n")                                                            // duplicate p line
	f.Add("p edge 299999 0")                                                                     // ~11 GB uncapped
	f.Fuzz(func(t *testing.T, input string) {
		checkCapped(t, input, func(input string, maxVertices int) (*File, error) {
			return ReadDIMACSFile(strings.NewReader(input), maxVertices)
		})
		file, err := ReadDIMACSFile(strings.NewReader(input), fuzzMaxVertices)
		if err != nil {
			return
		}
		if verr := file.G.Validate(); verr != nil {
			t.Fatalf("accepted file fails validation: %v", verr)
		}
		var first strings.Builder
		if werr := WriteDIMACSFile(&first, file); werr != nil {
			// Only non-round-trippable vertex names may refuse to write,
			// and the DIMACS reader normalizes whitespace, so a parsed
			// file must always serialize.
			t.Fatalf("write of parsed file failed: %v", werr)
		}
		back, err := ReadDIMACSFile(strings.NewReader(first.String()), 0)
		if err != nil {
			t.Fatalf("round trip failed: %v\n%s", err, first.String())
		}
		if !EqualFiles(file, back) {
			t.Fatalf("round trip changed the instance:\n%s", first.String())
		}
		var second strings.Builder
		if werr := WriteDIMACSFile(&second, back); werr != nil {
			t.Fatalf("second write failed: %v", werr)
		}
		if first.String() != second.String() {
			t.Fatalf("write→read→write not byte-identical:\n%q\n%q", first.String(), second.String())
		}
	})
}

func FuzzReadDIMACS(f *testing.F) {
	f.Add("p edge 3 2\ne 1 2\ne 2 3\n")
	f.Add("c regcoal move 1 2 5\n")
	f.Add("p edge 0 0\n")
	f.Add("p edge 2 1\ne 1 1\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadDIMACS(strings.NewReader(input))
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("accepted DIMACS graph fails validation: %v", verr)
		}
		var b strings.Builder
		if werr := WriteDIMACS(&b, g); werr != nil {
			t.Fatalf("write failed: %v", werr)
		}
		back, err := ReadDIMACS(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if back.N() != g.N() || back.E() != g.E() {
			t.Fatal("round trip changed shape")
		}
	})
}
