package session_test

// The session layer's central correctness property, tested at corpus
// scale: a delta session's incremental solve (memoized components,
// BFS-bounded dirty regions, reused untouched components) must equal —
// in every cost column — a fresh solve of the edited graph built from
// scratch. The fresh reference is produced by the naive edit model in
// internal/corpus, whose compacted rebuild iterates Go maps, so every
// comparison also certifies insensitivity to map-order-shuffled graph
// construction.

import (
	"testing"

	"regcoal/internal/corpus"
	"regcoal/internal/graph"
	"regcoal/internal/session"
)

// scriptsPerFamily × every corpus family is the differential load the
// issue pins: at least 64 independent random edit scripts per family.
const (
	scriptsPerFamily = 64
	scriptSteps      = 24
	checkpointEvery  = 8
)

type costs struct {
	colorable  bool
	numClasses int
	coalescedW int64
	remainingW int64
	coalescedM int
	remainingM int
}

func costsOf(sol *session.Solve) costs {
	return costs{
		colorable:  sol.Colorable,
		numClasses: sol.NumClasses,
		coalescedW: sol.CoalescedWeight,
		remainingW: sol.RemainingWeight,
		coalescedM: sol.CoalescedMoves,
		remainingM: sol.RemainingMoves,
	}
}

// freshCosts solves the edited graph from scratch: a brand-new session
// whose initial solve is a full fresh pass over a map-order rebuild.
func freshCosts(t *testing.T, edited *graph.File) costs {
	t.Helper()
	s, err := session.New("fresh", edited, 0, "", nil)
	if err != nil {
		t.Fatalf("fresh session over edited graph: %v", err)
	}
	var c costs
	s.View(func(sol *session.Solve) { c = costsOf(sol) })
	return c
}

// shadow tracks session-id-space alive vertices and interference edges
// alongside the script — an independent third model used only to check
// that the incremental coloring is proper.
type shadow struct {
	n     int
	alive map[int]bool
	edges map[[2]int]bool
}

func newShadow(f *graph.File) *shadow {
	sh := &shadow{n: f.G.N(), alive: make(map[int]bool), edges: make(map[[2]int]bool)}
	for v := 0; v < sh.n; v++ {
		sh.alive[v] = true
	}
	for _, e := range f.G.Edges() {
		sh.edges[[2]int{int(e[0]), int(e[1])}] = true
	}
	return sh
}

func (sh *shadow) apply(d session.Delta) {
	key := func(u, v int) [2]int {
		if u > v {
			u, v = v, u
		}
		return [2]int{u, v}
	}
	switch d.Op {
	case session.OpAddVertex:
		sh.alive[sh.n] = true
		sh.n++
	case session.OpRemoveVertex:
		delete(sh.alive, d.U)
		for e := range sh.edges {
			if e[0] == d.U || e[1] == d.U {
				delete(sh.edges, e)
			}
		}
	case session.OpAddEdge:
		sh.edges[key(d.U, d.V)] = true
	case session.OpRemoveEdge:
		delete(sh.edges, key(d.U, d.V))
	}
}

// checkProper verifies the incremental solve is internally consistent:
// when colorable, every vertex of a class shares one in-range color and
// interfering vertices get distinct colors.
func (sh *shadow) checkProper(t *testing.T, sol *session.Solve) {
	t.Helper()
	if !sol.Colorable {
		return
	}
	for v := range sh.alive {
		c := sol.Coloring[v]
		if c < 0 || c >= sol.K {
			t.Fatalf("alive vertex %d has color %d outside [0,%d)", v, c, sol.K)
		}
		if sol.ClassID[v] < 0 || sol.ClassID[v] >= sol.NumClasses {
			t.Fatalf("alive vertex %d has class %d outside [0,%d)", v, sol.ClassID[v], sol.NumClasses)
		}
	}
	classColor := make(map[int]int)
	for v := range sh.alive {
		id := sol.ClassID[v]
		if c, seen := classColor[id]; seen && c != sol.Coloring[v] {
			t.Fatalf("class %d colored both %d and %d", id, c, sol.Coloring[v])
		} else if !seen {
			classColor[id] = sol.Coloring[v]
		}
	}
	for e := range sh.edges {
		if sol.Coloring[e[0]] == sol.Coloring[e[1]] {
			t.Fatalf("interfering pair (%d, %d) share color %d", e[0], e[1], sol.Coloring[e[0]])
		}
	}
}

// TestDifferentialIncrementalEqualsFresh is the issue's acceptance
// property: every corpus family × 64 random edit scripts, with the
// session's delta path compared against a from-scratch solve of the
// edited graph at every checkpoint along each script.
func TestDifferentialIncrementalEqualsFresh(t *testing.T) {
	fams, err := corpus.Select("all")
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range fams {
		fam := fam
		t.Run(fam.Name, func(t *testing.T) {
			t.Parallel()
			inst, err := fam.Generate(corpus.Params{Seed: 0xd1f5eed, Quick: true}, 0)
			if err != nil {
				t.Fatal(err)
			}
			f := inst.File
			if f.G.HasPrecolored() {
				t.Skipf("%s instances are precolored; sessions decline them", fam.Name)
			}
			nScripts := scriptsPerFamily
			if testing.Short() {
				nScripts = 8
			}
			for si := 0; si < nScripts; si++ {
				seed := int64(0x5c819700) + int64(si)*7919
				script := corpus.GenEditScript(f, 0, seed, scriptSteps)

				s, err := session.New("diff", f, 0, "", nil)
				if err != nil {
					t.Fatalf("script %d: session over %s: %v", si, inst.Name, err)
				}
				sh := newShadow(f)
				for at := 0; at < len(script); at += checkpointEvery {
					end := at + checkpointEvery
					if end > len(script) {
						end = len(script)
					}
					// Apply the chunk one delta per batch so the solver walks
					// the incremental path repeatedly, not one big fresh pass.
					for i := at; i < end; i++ {
						if _, err := s.Apply(script[i : i+1]); err != nil {
							t.Fatalf("script %d seed %d: delta %d (%+v): %v", si, seed, i, script[i], err)
						}
						sh.apply(script[i])
					}
					var inc costs
					var path session.Path
					s.View(func(sol *session.Solve) {
						inc = costsOf(sol)
						path = sol.Path
						sh.checkProper(t, sol)
					})
					fresh := freshCosts(t, corpus.ApplyEditScript(f, 0, script[:end]))
					if inc != fresh {
						t.Fatalf("script %d seed %d after %d deltas (path %q):\n incremental %+v\n fresh       %+v",
							si, seed, end, path, inc, fresh)
					}
				}
			}
		})
	}
}
