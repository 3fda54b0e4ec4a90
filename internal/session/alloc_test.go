package session

// Zero-allocation gate for the steady-state delta-apply path: a warm
// session toggling between two already-memoized states must run
// validate → apply → resolve entirely out of pooled scratch (arena
// slices, cleared overlay maps, reused component sets and Solve
// buffers) — the property that keeps per-delta service latency flat.
// The name matches the CI alloc-gate pattern (ZeroAlloc), which re-runs
// this under the race detector with the count assertion skipped.

import (
	"testing"

	"regcoal/internal/graph"
)

func TestDeltaApplyZeroAlloc(t *testing.T) {
	// A few components with affinities, large enough that the resolve
	// path exercises BFS, decomposition, and reassembly for real.
	g := graph.New(96)
	for c := 0; c < 4; c++ {
		base := graph.V(c * 24)
		for v := graph.V(0); v < 23; v++ {
			g.AddEdge(base+v, base+v+1)
		}
		g.AddAffinity(base, base+12, int64(c+1))
	}
	s, err := New("s-gate", &graph.File{G: g, K: 3}, 0, "h", &Metrics{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	// Two batches toggling one edge in one component; warm both states so
	// every subsequent resolve is a component-memo hit.
	add := []Delta{{Op: OpAddEdge, U: 0, V: 5}}
	del := []Delta{{Op: OpRemoveEdge, U: 0, V: 5}}
	for i := 0; i < 8; i++ {
		if _, err := s.Apply(add); err != nil {
			t.Fatalf("warm add: %v", err)
		}
		if _, err := s.Apply(del); err != nil {
			t.Fatalf("warm del: %v", err)
		}
	}

	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.Apply(add); err != nil {
			t.Fatalf("apply add: %v", err)
		}
		if _, err := s.Apply(del); err != nil {
			t.Fatalf("apply del: %v", err)
		}
	})
	var sol Solve
	s.View(func(v *Solve) { sol = *v })
	if !sol.Colorable || sol.Path != PathMemo {
		t.Fatalf("steady state not on the memo path: colorable=%v path=%q", sol.Colorable, sol.Path)
	}
	if graph.RaceEnabled {
		t.Skipf("race detector active, alloc count (%v) not asserted", allocs)
	}
	if allocs != 0 {
		t.Fatalf("warm delta apply allocates %v times per toggle pair, want 0", allocs)
	}
}
