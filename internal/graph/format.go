package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Textual graph format, modelled on the instance dumps of the Appel–George
// "coalescing challenge" that the paper's conclusion references: a graph is
// a list of named vertices, interference edges, and weighted move edges,
// plus the number of available registers. The format is line-oriented:
//
//	# comment (also after ';')
//	k 4                 number of registers (optional, default 0 = unset)
//	node a              declare vertex "a"
//	node r1 :2          declare vertex "r1" precolored with color 2
//	edge a b            interference between a and b
//	move a b 10         affinity between a and b with weight 10
//	move a b            affinity with default weight 1
//
// Vertices referenced by edge/move lines before being declared are created
// implicitly. Write and ReadFrom round-trip.

// File bundles a graph with the register count an instance was produced for.
type File struct {
	G *Graph
	K int
}

// SizeError is what a reader returns for an input that declares more
// vertices than its cap allows: the input parsed cleanly, but its graph
// was not built. N is the full vertex count; K is the register count the
// input declared (0 if none), so a caller can still tell a missing one.
type SizeError struct{ N, Limit, K int }

func (e *SizeError) Error() string {
	return fmt.Sprintf("graph carries %d vertices, limit %d", e.N, e.Limit)
}

// ReadFrom parses the textual format. maxVertices > 0 caps the vertices
// the input may name: past the cap the graph is dropped and names are
// only counted, but parsing goes on, so a syntax error anywhere is still
// the error returned; a clean over-cap input returns a *SizeError. Zero
// means no cap.
func ReadFrom(r io.Reader, maxVertices int) (*File, error) {
	g := New(0)
	k := 0
	byName := make(map[string]V)
	vertex := func(name string) V {
		if v, ok := byName[name]; ok {
			return v
		}
		v := V(len(byName))
		byName[name] = v
		if maxVertices > 0 && len(byName) > maxVertices {
			g = nil
		}
		if g != nil {
			g.AddNamedVertex(name)
		}
		return v
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if i := strings.IndexAny(line, "#;"); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "k":
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: want 'k <int>'", lineno)
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil || v < 0 {
				return nil, fmt.Errorf("graph: line %d: bad register count %q", lineno, fields[1])
			}
			k = v
		case "node":
			if len(fields) != 2 && len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: want 'node <name> [:color]'", lineno)
			}
			v := vertex(fields[1])
			if len(fields) == 3 {
				colorStr, ok := strings.CutPrefix(fields[2], ":")
				if !ok {
					return nil, fmt.Errorf("graph: line %d: precolor must be ':<int>', got %q", lineno, fields[2])
				}
				c, err := strconv.Atoi(colorStr)
				if err != nil || c < 0 {
					return nil, fmt.Errorf("graph: line %d: bad precolor %q", lineno, fields[2])
				}
				if g != nil {
					g.SetPrecolored(v, c)
				}
			}
		case "edge":
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: want 'edge <a> <b>'", lineno)
			}
			u, v := vertex(fields[1]), vertex(fields[2])
			if u == v {
				return nil, fmt.Errorf("graph: line %d: self-interference on %q", lineno, fields[1])
			}
			if g != nil {
				g.AddEdge(u, v)
			}
		case "move":
			if len(fields) != 3 && len(fields) != 4 {
				return nil, fmt.Errorf("graph: line %d: want 'move <a> <b> [weight]'", lineno)
			}
			u, v := vertex(fields[1]), vertex(fields[2])
			w := int64(1)
			if len(fields) == 4 {
				parsed, err := strconv.ParseInt(fields[3], 10, 64)
				if err != nil || parsed < 0 {
					return nil, fmt.Errorf("graph: line %d: bad move weight %q", lineno, fields[3])
				}
				w = parsed
			}
			if g != nil {
				g.AddAffinity(u, v, w)
			}
		default:
			return nil, fmt.Errorf("graph: line %d: unknown directive %q", lineno, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading: %w", err)
	}
	if g == nil {
		return nil, &SizeError{N: len(byName), Limit: maxVertices, K: k}
	}
	return &File{G: g, K: k}, nil
}

// Write renders the file in the textual format. Every vertex gets a node
// line (so isolated vertices survive the round trip), then edges, then
// moves, all in deterministic order.
func (f *File) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	g := f.G
	if f.K > 0 {
		fmt.Fprintf(bw, "k %d\n", f.K)
	}
	for v := 0; v < g.N(); v++ {
		if c, ok := g.Precolored(V(v)); ok {
			fmt.Fprintf(bw, "node %s :%d\n", g.Name(V(v)), c)
		} else {
			fmt.Fprintf(bw, "node %s\n", g.Name(V(v)))
		}
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "edge %s %s\n", g.Name(e[0]), g.Name(e[1]))
	}
	as := append([]Affinity(nil), g.Affinities()...)
	SortAffinities(as)
	for _, a := range as {
		fmt.Fprintf(bw, "move %s %s %d\n", g.Name(a.X), g.Name(a.Y), a.Weight)
	}
	return bw.Flush()
}

// ParseString parses the textual format from a string; it is a convenience
// for tests and examples.
func ParseString(s string) (*File, error) {
	return ReadFrom(strings.NewReader(s), 0)
}

// FormatString renders the file to a string.
func (f *File) FormatString() string {
	var b strings.Builder
	if err := f.Write(&b); err != nil {
		// strings.Builder never errors; keep the invariant visible.
		panic(err)
	}
	return b.String()
}
