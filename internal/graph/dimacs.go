package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// DIMACS graph-coloring format support (.col): the standard benchmark
// format for coloring instances, so interference graphs can be exchanged
// with external coloring tools. DIMACS has no notion of move edges,
// register counts, vertex names or precoloring; the writers emit those as
// structured comment lines that the readers understand, keeping round
// trips lossless while staying readable by standard tools:
//
//	p edge <n> <m>
//	c regcoal k 6            register count of the instance (File.K)
//	c regcoal name 3 tmp7    vertex 3 is named "tmp7"
//	c regcoal color 1 0      vertex 1 is precolored with color 0
//	c regcoal move 1 3 10    affinity (1,3) with weight 10
//	e 1 2
//
// Vertices are 1-based in the format, 0-based in memory. Standard tools
// ignore the comments; regcoal readers reconstruct the full File. The
// comment lines always follow the p line, in the fixed order k, names,
// colors, moves, so that Write → Read → Write is byte-identical (the
// corpus round-trip guarantee; see TestDIMACSFileRoundTripBytes).

// MaxDIMACSVertices caps the vertex count a DIMACS p line may declare.
// The cap exists to harden the parser against hostile input: a one-line
// file claiming 10^9 vertices would otherwise commit gigabytes of
// adjacency before a single edge is read. Real coloring benchmarks are
// orders of magnitude below it.
const MaxDIMACSVertices = 1 << 22

// ReadDIMACS parses a DIMACS .col file, including regcoal move comments.
// Other regcoal comments (k, names, precoloring) are applied to the graph
// where they can be (names, colors); the register count is discarded — use
// ReadDIMACSFile to keep it.
func ReadDIMACS(r io.Reader) (*Graph, error) {
	f, err := ReadDIMACSFile(r, 0)
	if err != nil {
		return nil, err
	}
	return f.G, nil
}

// ReadDIMACSFile parses a DIMACS .col file with regcoal comments into a
// File, reconstructing the register count, vertex names, precoloring and
// affinities that WriteDIMACSFile emitted. maxVertices > 0 caps the
// vertex count the p line may declare: over the cap no graph is built,
// but parsing goes on against the declared count, so a syntax error
// anywhere is still the error returned; a clean over-cap input returns a
// *SizeError. Zero means no cap beyond MaxDIMACSVertices.
func ReadDIMACSFile(r io.Reader, maxVertices int) (*File, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var g *Graph // nil before the p line, and over the cap
	n := -1      // the p line's vertex count; -1 before it
	k := 0
	lineno := 0
	vertex := func(field string, what string) (V, error) {
		i, err := strconv.Atoi(field)
		if err != nil || i < 1 || i > n {
			return -1, fmt.Errorf("graph: dimacs line %d: bad %s vertex %q", lineno, what, field)
		}
		return V(i - 1), nil
	}
	for sc.Scan() {
		lineno++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "c":
			if len(fields) < 3 || fields[1] != "regcoal" {
				continue // ordinary comment
			}
			if n < 0 {
				return nil, fmt.Errorf("graph: dimacs line %d: regcoal comment before p line", lineno)
			}
			switch fields[2] {
			case "k":
				if len(fields) != 4 {
					return nil, fmt.Errorf("graph: dimacs line %d: want 'c regcoal k <int>'", lineno)
				}
				v, err := strconv.Atoi(fields[3])
				if err != nil || v < 0 {
					return nil, fmt.Errorf("graph: dimacs line %d: bad register count %q", lineno, fields[3])
				}
				k = v
			case "name":
				if len(fields) < 5 {
					return nil, fmt.Errorf("graph: dimacs line %d: want 'c regcoal name <v> <name>'", lineno)
				}
				v, err := vertex(fields[3], "name")
				if err != nil {
					return nil, err
				}
				if g != nil {
					g.SetName(v, strings.Join(fields[4:], " "))
				}
			case "color":
				if len(fields) != 5 {
					return nil, fmt.Errorf("graph: dimacs line %d: want 'c regcoal color <v> <color>'", lineno)
				}
				v, err := vertex(fields[3], "color")
				if err != nil {
					return nil, err
				}
				c, err := strconv.Atoi(fields[4])
				if err != nil || c < 0 {
					return nil, fmt.Errorf("graph: dimacs line %d: bad precolor %q", lineno, fields[4])
				}
				if g != nil {
					g.SetPrecolored(v, c)
				}
			case "move":
				if len(fields) != 6 {
					return nil, fmt.Errorf("graph: dimacs line %d: want 'c regcoal move <x> <y> <weight>'", lineno)
				}
				x, err := vertex(fields[3], "move")
				if err != nil {
					return nil, err
				}
				y, err := vertex(fields[4], "move")
				if err != nil {
					return nil, err
				}
				w, err := strconv.ParseInt(fields[5], 10, 64)
				if err != nil || w < 0 {
					return nil, fmt.Errorf("graph: dimacs line %d: bad move weight %q", lineno, fields[5])
				}
				if g != nil {
					g.AddAffinity(x, y, w)
				}
			default:
				return nil, fmt.Errorf("graph: dimacs line %d: unknown regcoal comment %q", lineno, fields[2])
			}
		case "p":
			if len(fields) != 4 || fields[1] != "edge" {
				return nil, fmt.Errorf("graph: dimacs line %d: want 'p edge <n> <m>'", lineno)
			}
			count, err := strconv.Atoi(fields[2])
			if err != nil || count < 0 {
				return nil, fmt.Errorf("graph: dimacs line %d: bad vertex count", lineno)
			}
			if count > MaxDIMACSVertices {
				return nil, fmt.Errorf("graph: dimacs line %d: vertex count %d exceeds limit %d", lineno, count, MaxDIMACSVertices)
			}
			// The edge count is not used (edges are counted as they are
			// read) but a malformed one still fails the parse.
			if m, err := strconv.Atoi(fields[3]); err != nil || m < 0 {
				return nil, fmt.Errorf("graph: dimacs line %d: bad edge count %q", lineno, fields[3])
			}
			if n >= 0 {
				return nil, fmt.Errorf("graph: dimacs line %d: duplicate p line", lineno)
			}
			n = count
			if maxVertices <= 0 || n <= maxVertices {
				g = New(n)
			}
		case "e":
			if n < 0 {
				return nil, fmt.Errorf("graph: dimacs line %d: edge before p line", lineno)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: dimacs line %d: want 'e <u> <v>'", lineno)
			}
			u, err := vertex(fields[1], "edge")
			if err != nil {
				return nil, err
			}
			v, err := vertex(fields[2], "edge")
			if err != nil {
				return nil, err
			}
			if u == v {
				return nil, fmt.Errorf("graph: dimacs line %d: self-loop edge", lineno)
			}
			if g != nil {
				g.AddEdge(u, v)
			}
		default:
			return nil, fmt.Errorf("graph: dimacs line %d: unknown record %q", lineno, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	switch {
	case n < 0:
		return nil, fmt.Errorf("graph: dimacs input has no p line")
	case g == nil:
		return nil, &SizeError{N: n, Limit: maxVertices, K: k}
	}
	return &File{G: g, K: k}, nil
}

// WriteDIMACS renders the graph in DIMACS .col format with regcoal
// comments for names, precoloring and moves (no register count; see
// WriteDIMACSFile).
func WriteDIMACS(w io.Writer, g *Graph) error {
	return WriteDIMACSFile(w, &File{G: g})
}

// WriteDIMACSFile renders the file in DIMACS .col format with regcoal
// comments carrying everything DIMACS itself cannot: the register count,
// vertex names, precoloring, and move affinities. The output is
// canonical — fixed comment order, sorted affinities — so writing, reading
// back, and writing again produces identical bytes.
func WriteDIMACSFile(w io.Writer, f *File) error {
	bw := bufio.NewWriter(w)
	g := f.G
	fmt.Fprintf(bw, "p edge %d %d\n", g.N(), g.E())
	if f.K > 0 {
		fmt.Fprintf(bw, "c regcoal k %d\n", f.K)
	}
	for v := 0; v < g.N(); v++ {
		if g.HasName(V(v)) {
			name := g.Name(V(v))
			// The reader rejoins strings.Fields with single spaces, so a
			// name with irregular whitespace (or embedded newlines, which
			// would corrupt the record stream) cannot round-trip; refuse
			// it rather than silently break the byte-identity guarantee.
			if name != strings.Join(strings.Fields(name), " ") {
				return fmt.Errorf("graph: dimacs: vertex %d name %q contains non-round-trippable whitespace", v, name)
			}
			fmt.Fprintf(bw, "c regcoal name %d %s\n", v+1, name)
		}
	}
	for v := 0; v < g.N(); v++ {
		if c, ok := g.Precolored(V(v)); ok {
			fmt.Fprintf(bw, "c regcoal color %d %d\n", v+1, c)
		}
	}
	as := append([]Affinity(nil), g.Affinities()...)
	SortAffinities(as)
	for _, a := range as {
		fmt.Fprintf(bw, "c regcoal move %d %d %d\n", int(a.X)+1, int(a.Y)+1, a.Weight)
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "e %d %d\n", int(e[0])+1, int(e[1])+1)
	}
	return bw.Flush()
}

// EqualFiles reports whether two files describe the same instance: same
// register count, vertex count, names, precoloring, edge set, and
// normalized affinity multiset. It is the semantic companion to the
// byte-level round-trip guarantee, used by corpus integrity checks.
func EqualFiles(a, b *File) bool {
	if a.K != b.K || a.G.N() != b.G.N() || a.G.E() != b.G.E() {
		return false
	}
	for v := 0; v < a.G.N(); v++ {
		if a.G.Name(V(v)) != b.G.Name(V(v)) {
			return false
		}
		ca, oka := a.G.Precolored(V(v))
		cb, okb := b.G.Precolored(V(v))
		if oka != okb || ca != cb {
			return false
		}
	}
	ea, eb := a.G.Edges(), b.G.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			return false
		}
	}
	sortedAffinities := func(g *Graph) []Affinity {
		as := append([]Affinity(nil), g.Affinities()...)
		SortAffinities(as)
		return as
	}
	aa, ab := sortedAffinities(a.G), sortedAffinities(b.G)
	if len(aa) != len(ab) {
		return false
	}
	for i := range aa {
		if aa[i] != ab[i] {
			return false
		}
	}
	return true
}
