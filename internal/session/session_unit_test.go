package session

import (
	"net/http"
	"testing"
	"time"

	"regcoal/internal/graph"
)

// base4 builds a 4-cycle with one chord (chordal) and one affinity.
func base4(t *testing.T) *graph.File {
	t.Helper()
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 0)
	g.AddEdge(0, 2)
	g.AddAffinity(1, 3, 5)
	return &graph.File{K: 3, G: g}
}

func TestSessionLifecycle(t *testing.T) {
	s, err := New("s-test", base4(t), 0, "h", &Metrics{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var sol Solve
	s.View(func(v *Solve) { sol = *v })
	if !sol.Colorable || sol.K != 3 {
		t.Fatalf("base solve: colorable=%v k=%d", sol.Colorable, sol.K)
	}
	// 1 and 3 are not adjacent: the affinity (weight 5) should coalesce.
	if sol.CoalescedWeight != 5 || sol.CoalescedMoves != 1 {
		t.Fatalf("base coalesce: weight=%d moves=%d", sol.CoalescedWeight, sol.CoalescedMoves)
	}
	if sol.Path != PathFresh || sol.Version != 0 {
		t.Fatalf("base path=%q version=%d", sol.Path, sol.Version)
	}

	// Adding the 1–3 edge kills the affinity.
	if _, err := s.Apply([]Delta{{Op: OpAddEdge, U: 1, V: 3}}); err != nil {
		t.Fatalf("add_edge: %v", err)
	}
	s.View(func(v *Solve) { sol = *v })
	if sol.CoalescedWeight != 0 || sol.RemainingWeight != 5 {
		t.Fatalf("after add_edge: coalesced=%d remaining=%d", sol.CoalescedWeight, sol.RemainingWeight)
	}
	// K4 needs 4 colors: k=3 now fails.
	if sol.Version != 1 || sol.Colorable {
		t.Fatalf("after add_edge: version=%d colorable=%v (K4 with k=3)", sol.Version, sol.Colorable)
	}

	// Raising k to 4 makes it colorable again.
	if _, err := s.Apply([]Delta{{Op: OpSetK, K: 4}}); err != nil {
		t.Fatalf("set_k: %v", err)
	}
	s.View(func(v *Solve) { sol = *v })
	if !sol.Colorable || sol.K != 4 || sol.Path != PathFresh {
		t.Fatalf("K4 with k=4: colorable=%v k=%d path=%q", sol.Colorable, sol.K, sol.Path)
	}

	// Remove the chord and the new edge: back to a 4-cycle, 2-colorable.
	if _, err := s.Apply([]Delta{
		{Op: OpRemoveEdge, U: 0, V: 2},
		{Op: OpRemoveEdge, U: 1, V: 3},
	}); err != nil {
		t.Fatalf("remove edges: %v", err)
	}
	s.View(func(v *Solve) { sol = *v })
	if !sol.Colorable {
		t.Fatalf("C4 with k=2 not colorable")
	}
	if sol.RemainingMoves != 0 && sol.CoalescedMoves != 1 {
		t.Fatalf("affinity 1-3 should coalesce again: %+v", sol)
	}
}

func TestSessionVertexChurn(t *testing.T) {
	s, err := New("s-test", base4(t), 0, "h", &Metrics{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// New vertex gets id 4; dead ids are never reused.
	if _, err := s.Apply([]Delta{{Op: OpAddVertex}}); err != nil {
		t.Fatalf("add_vertex: %v", err)
	}
	var sol Solve
	s.View(func(v *Solve) { sol = *v })
	if sol.Alive != 5 || sol.NextVertex != 5 {
		t.Fatalf("alive=%d next=%d", sol.Alive, sol.NextVertex)
	}
	if _, err := s.Apply([]Delta{{Op: OpRemoveVertex, U: 2}}); err != nil {
		t.Fatalf("remove_vertex: %v", err)
	}
	s.View(func(v *Solve) { sol = *v })
	if sol.Alive != 4 || sol.NextVertex != 5 {
		t.Fatalf("after remove: alive=%d next=%d", sol.Alive, sol.NextVertex)
	}
	if sol.Coloring[2] != graph.NoColor || sol.ClassID[2] != -1 {
		t.Fatalf("dead vertex kept color/class: %+v", sol)
	}
	// Deltas touching the dead vertex are 400s.
	for _, d := range []Delta{
		{Op: OpAddEdge, U: 2, V: 4},
		{Op: OpRemoveVertex, U: 2},
		{Op: OpAddAffinity, U: 2, V: 4, Weight: 1},
	} {
		_, err := s.Apply([]Delta{d})
		var ce *ClientError
		if err == nil || !asClientError(err, &ce) || ce.Status != http.StatusBadRequest {
			t.Fatalf("delta %+v against dead vertex: err=%v", d, err)
		}
	}
}

func TestSessionRejectsAtomically(t *testing.T) {
	s, err := New("s-test", base4(t), 0, "h", &Metrics{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	v0 := s.Version()
	// Second delta is invalid (duplicate edge): the whole batch must be
	// rejected, leaving the first unapplied.
	_, err = s.Apply([]Delta{
		{Op: OpAddAffinity, U: 0, V: 3, Weight: 2},
		{Op: OpAddEdge, U: 0, V: 1},
	})
	var ce *ClientError
	if err == nil || !asClientError(err, &ce) || ce.Status != http.StatusBadRequest {
		t.Fatalf("want 400, got %v", err)
	}
	if s.Version() != v0 {
		t.Fatalf("version advanced on rejected batch")
	}
	var sol Solve
	s.View(func(v *Solve) { sol = *v })
	if sol.CoalescedWeight+sol.RemainingWeight != 5 {
		t.Fatalf("first delta of rejected batch leaked: %+v", sol)
	}
}

func TestApplyAtVersionConflict(t *testing.T) {
	s, err := New("s-test", base4(t), 0, "h", &Metrics{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	render := func(sol *Solve) (any, error) { return sol.Version, nil }
	if v, err := s.ApplyRender(0, []Delta{{Op: OpAddVertex}}, render); err != nil || v != int64(1) {
		t.Fatalf("ApplyRender(0): version %v, %v", v, err)
	}
	_, err = s.ApplyRender(0, []Delta{{Op: OpAddVertex}}, render)
	var ce *ClientError
	if err == nil || !asClientError(err, &ce) || ce.Status != http.StatusConflict {
		t.Fatalf("stale version: want 409, got %v", err)
	}
}

func TestStoreLRUAndTTL(t *testing.T) {
	now := time.Unix(1000, 0)
	st := NewStore(StoreConfig{MaxSessions: 2, TTL: time.Minute,
		now: func() time.Time { return now }})
	a, _, err := st.Create(base4(t), 0, "ha", nil)
	if err != nil {
		t.Fatalf("create a: %v", err)
	}
	b, _, err := st.Create(base4(t), 0, "hb", nil)
	if err != nil {
		t.Fatalf("create b: %v", err)
	}
	// Touch a so b is LRU, then create c: b evicts.
	if _, err := st.Get(a.ID()); err != nil {
		t.Fatalf("get a: %v", err)
	}
	c, _, err := st.Create(base4(t), 0, "hc", nil)
	if err != nil {
		t.Fatalf("create c: %v", err)
	}
	if _, err := st.Get(b.ID()); err == nil {
		t.Fatalf("b survived LRU eviction")
	}
	if st.Metrics().Evicted.Load() != 1 {
		t.Fatalf("evicted=%d", st.Metrics().Evicted.Load())
	}
	// TTL: advance past the deadline; both a and c expire.
	now = now.Add(2 * time.Minute)
	if _, err := st.Get(a.ID()); err == nil {
		t.Fatalf("a survived TTL")
	}
	if _, err := st.Get(c.ID()); err == nil {
		t.Fatalf("c survived TTL")
	}
	if st.Metrics().Active.Load() != 0 {
		t.Fatalf("len=%d after expiry", st.Metrics().Active.Load())
	}
}

// asClientError mirrors errors.As without importing errors twice in
// these assertions.
func asClientError(err error, target **ClientError) bool {
	ce, ok := err.(*ClientError)
	if ok {
		*target = ce
	}
	return ok
}

// Mid-session chordality break: the base graph is chordal (the
// chordal-inc strategy can win its component), then one delta removes a
// chord and leaves a chordless C4. The chordal strategy must decline
// that solve with its documented ErrNotChordal fallback — observable as
// the ChordalWins counter standing still — while the conservative and
// optimistic members keep the session's answers correct.
func TestChordalFallbackMidSession(t *testing.T) {
	m := &Metrics{}
	// Chordal base: C4 plus the 0-2 chord, with an affinity the solver
	// can coalesce, so the chordal member competes for the win.
	s, err := New("s-test", base4(t), 0, "h", m)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	winsBefore := m.ChordalWins.Load()
	if winsBefore == 0 {
		t.Fatalf("chordal strategy did not win the chordal base component")
	}

	// Drop the chord: chordless C4, chordal-inc must decline.
	if _, err := s.Apply([]Delta{{Op: OpRemoveEdge, U: 0, V: 2}}); err != nil {
		t.Fatalf("remove chord: %v", err)
	}
	if got := m.ChordalWins.Load(); got != winsBefore {
		t.Fatalf("chordal strategy won a non-chordal component: wins %d -> %d", winsBefore, got)
	}
	var sol Solve
	s.View(func(v *Solve) { sol = *v })
	// The fallback members still answer: C4 with k=3 is colorable and the
	// (1, 3) affinity is coalescible.
	if !sol.Colorable {
		t.Fatalf("fallback solve not colorable: %+v", sol)
	}
	if sol.CoalescedWeight != 5 || sol.CoalescedMoves != 1 {
		t.Fatalf("fallback solve lost the affinity: %+v", sol)
	}
	if sol.Coloring[1] != sol.Coloring[3] {
		t.Fatalf("coalesced pair colored apart: %v", sol.Coloring)
	}

	// Restore the chord: the state equals the already-solved base, so the
	// component memo answers without re-running any strategy.
	if _, err := s.Apply([]Delta{{Op: OpAddEdge, U: 0, V: 2}}); err != nil {
		t.Fatalf("re-add chord: %v", err)
	}
	s.View(func(v *Solve) { sol = *v })
	if sol.Path != PathMemo {
		t.Fatalf("restored base state not answered from memo: path %q", sol.Path)
	}
	if got := m.ChordalWins.Load(); got != winsBefore {
		t.Fatalf("memo hit re-ran strategies: wins %d -> %d", winsBefore, got)
	}

	// A genuinely new chordal state (different affinity weight) re-solves
	// and the chordal member wins again.
	if _, err := s.Apply([]Delta{{Op: OpReweightAffinity, U: 1, V: 3, Weight: 9}}); err != nil {
		t.Fatalf("reweight: %v", err)
	}
	if got := m.ChordalWins.Load(); got <= winsBefore {
		t.Fatalf("chordal strategy did not recover after chordality returned: wins %d -> %d", winsBefore, got)
	}
}
