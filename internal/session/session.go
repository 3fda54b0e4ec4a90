package session

import (
	"net/http"
	"sync"

	"regcoal/internal/graph"
)

// The bounds of a session's incremental machinery.
const (
	// budget caps the BFS-bounded affected region (in vertices): when the
	// dirty flood-fill visits more, the session falls back to a full
	// fresh solve over all components (the always-correct fallback).
	budget = 1 << 14
	// memoCap bounds the per-session component-result memo; exceeding it
	// clears the memo (correctness is unaffected, only reuse).
	memoCap = 4096
)

// Path labels how a solve was obtained.
type Path string

const (
	// PathCached: nothing changed since the last solve; the previous
	// solution is returned as-is.
	PathCached Path = "cached"
	// PathMemo: only memoized component results were reassembled — no
	// component was actually re-solved.
	PathMemo Path = "memo"
	// PathIncremental: the BFS-bounded affected region was re-solved;
	// components outside it were reused from the previous solve.
	PathIncremental Path = "incremental"
	// PathFresh: every component was recomputed (first solve, k change,
	// or the affected region exceeded the budget).
	PathFresh Path = "fresh"
)

// Solve is one session solution over the alive vertices, in session
// vertex-id space. The slices are owned by the session and reused across
// solves: callers must copy what they retain past the next Apply.
type Solve struct {
	K          int
	Colorable  bool
	NumClasses int

	CoalescedWeight int64
	RemainingWeight int64
	CoalescedMoves  int
	RemainingMoves  int

	// Path labels how this solve was obtained (see the Path constants).
	Path Path

	// Version, NextVertex, and Alive snapshot the session at solve time:
	// delta batches applied, the id-space size (the id the next
	// add_vertex will take), and the alive vertex count.
	Version    int64
	NextVertex int
	Alive      int

	// Coloring[v] is vertex v's register, or -1 when v is dead or its
	// component is not k-colorable.
	Coloring []int
	// ClassID[v] is the dense coalescing-class index of vertex v, or -1
	// when v is dead. Classes are numbered in order of smallest member.
	ClassID []int
}

// Session is one client's delta-solve state: a working graph (session
// vertex ids, grow-only; removed vertices stay as dead ids), the session
// affinity map, and the incremental solve state (previous components,
// component-result memo, dirty set). All methods are safe for concurrent
// use; Apply serializes on the session mutex.
type Session struct {
	mu sync.Mutex

	id       string
	baseHash string
	metrics  *Metrics

	k      int
	g      *graph.Graph // interference only; affinities live in aff
	alive  []bool
	nAlive int
	aff    map[[2]graph.V]int64
	affNbr [][]graph.V // per-vertex sorted affinity neighbors

	version int64

	// Incremental solve state.
	solved   bool
	allDirty bool
	dirty    []graph.V
	dirtyIn  []bool
	cur      Solve
	comps    compSet
	next     compSet
	memo     map[fp]*compResult

	// Validation overlay scratch (cleared per Apply).
	ovEdge map[[2]graph.V]bool
	ovAff  map[[2]graph.V]int64
	ovDead map[graph.V]bool

	tmp  []graph.V // apply-time neighbor copy scratch
	nbuf []graph.V // resolve-time NeighborsInto scratch (caller holds mu)
}

// New builds a session over base instance f: the interference graph is
// copied into the working representation and the affinities are
// normalized (parallel moves merged by weight sum, self-moves dropped) so
// that the solve is insensitive to the base file's affinity order. k
// overrides f.K when positive. The initial solve runs immediately (path
// "fresh"), so the create response carries a result.
func New(id string, f *graph.File, k int, baseHash string, m *Metrics) (*Session, error) {
	if k <= 0 {
		k = f.K
	}
	if k <= 0 {
		return nil, Errf(http.StatusBadRequest, "session requires k >= 1 (give k in the graph or the request)")
	}
	if f.G.HasPrecolored() {
		return nil, Errf(http.StatusBadRequest, "delta sessions do not support precolored graphs")
	}
	n := f.G.N()
	s := &Session{
		id:       id,
		baseHash: baseHash,
		metrics:  m,
		k:        k,
		g:        graph.New(n),
		alive:    make([]bool, n),
		nAlive:   n,
		aff:      make(map[[2]graph.V]int64),
		affNbr:   make([][]graph.V, n),
		dirtyIn:  make([]bool, n),
		memo:     make(map[fp]*compResult),
		ovEdge:   make(map[[2]graph.V]bool),
		ovAff:    make(map[[2]graph.V]int64),
		ovDead:   make(map[graph.V]bool),
	}
	for v := graph.V(0); v < graph.V(n); v++ {
		s.alive[v] = true
		for _, w := range f.G.Neighbors(v) {
			if w > v {
				s.g.AddEdge(v, w)
			}
		}
	}
	for _, a := range f.G.Affinities() {
		a = a.Canon()
		if a.X == a.Y {
			continue
		}
		s.aff[pairKey(a.X, a.Y)] += a.Weight
	}
	for pair, w := range s.aff {
		if w == 0 {
			delete(s.aff, pair)
			continue
		}
		s.affNbr[pair[0]] = insertSortedV(s.affNbr[pair[0]], pair[1])
		s.affNbr[pair[1]] = insertSortedV(s.affNbr[pair[1]], pair[0])
	}
	s.mu.Lock()
	s.resolve()
	s.mu.Unlock()
	return s, nil
}

// ID returns the session id.
func (s *Session) ID() string { return s.id }

// BaseHash returns the WL canonical hash of the base graph — the
// cluster routing key that keeps the session shard-sticky.
func (s *Session) BaseHash() string { return s.baseHash }

// Version returns the number of delta batches applied so far.
func (s *Session) Version() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// Shape reports the session id space size (next fresh vertex id), the
// alive vertex count, and the current k.
func (s *Session) Shape() (nextID, alive, k int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.g.N(), s.nAlive, s.k
}

// Apply validates the delta batch atomically (an invalid delta rejects
// the whole batch with a 400 ClientError and leaves the session
// untouched), applies it, bumps the version, and re-solves. The returned
// Solve is the session's reusable buffer: render or copy it before the
// next Apply.
func (s *Session) Apply(deltas []Delta) (*Solve, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyLocked(deltas)
}

// ApplyAt is Apply guarded by optimistic concurrency: the batch applies
// only when the session is at the expected version, else a 409
// ClientError. Used with the store's per-session singleflight so that
// concurrent duplicates of one edit collapse to a single application.
func (s *Session) ApplyAt(version int64, deltas []Delta) (*Solve, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.version != version {
		if s.metrics != nil {
			s.metrics.Conflicts.Add(1)
		}
		return nil, Errf(http.StatusConflict, "version conflict: session at %d, request expects %d", s.version, version)
	}
	return s.applyLocked(deltas)
}

// ApplyRender applies (at the expected version when version >= 0) and
// renders the resulting solve in one critical section, so a concurrent
// Apply cannot recycle the solve buffers mid-render. render must only
// read the Solve (calling back into locking Session methods would
// deadlock).
func (s *Session) ApplyRender(version int64, deltas []Delta, render func(*Solve) (any, error)) (any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if version >= 0 && s.version != version {
		if s.metrics != nil {
			s.metrics.Conflicts.Add(1)
		}
		return nil, Errf(http.StatusConflict, "version conflict: session at %d, request expects %d", s.version, version)
	}
	sol, err := s.applyLocked(deltas)
	if err != nil {
		return nil, err
	}
	return render(sol)
}

func (s *Session) applyLocked(deltas []Delta) (*Solve, error) {
	if len(deltas) == 0 {
		return nil, Errf(http.StatusBadRequest, "empty deltas")
	}
	if err := s.validate(deltas); err != nil {
		if s.metrics != nil {
			s.metrics.Rejected.Add(1)
		}
		return nil, err
	}
	for i := range deltas {
		s.applyOne(&deltas[i])
	}
	s.version++
	if s.metrics != nil {
		s.metrics.Applies.Add(1)
		s.metrics.Deltas.Add(int64(len(deltas)))
	}
	s.resolve()
	return &s.cur, nil
}

// Current re-solves if needed and returns the session's current solution
// (the reusable buffer; see Apply).
func (s *Session) Current() *Solve {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resolve()
	return &s.cur
}

// View runs fn with the session locked and the current solve — for
// rendering a response without racing a concurrent Apply's buffer reuse.
func (s *Session) View(fn func(*Solve)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resolve()
	fn(&s.cur)
}

// validate checks the whole batch against an overlay of pending effects
// without mutating session state, so that application cannot fail
// mid-batch.
func (s *Session) validate(deltas []Delta) error {
	clear(s.ovEdge)
	clear(s.ovAff)
	clear(s.ovDead)
	added := 0
	n := s.g.N()

	for i := range deltas {
		d := &deltas[i]
		u, v := graph.V(d.U), graph.V(d.V)
		switch d.Op {
		case OpAddVertex:
			added++
		case OpRemoveVertex:
			if !s.vertexOK(d.U, n, added) {
				return errDelta(i, "remove_vertex: no alive vertex %d", d.U)
			}
			s.ovDead[u] = true
		case OpAddEdge, OpRemoveEdge:
			if d.U == d.V {
				return errDelta(i, "%s: self-loop on vertex %d", d.Op, d.U)
			}
			if !s.vertexOK(d.U, n, added) || !s.vertexOK(d.V, n, added) {
				return errDelta(i, "%s: no alive vertex pair (%d, %d)", d.Op, d.U, d.V)
			}
			if d.Op == OpAddEdge {
				if s.edgeExists(u, v, n) {
					return errDelta(i, "add_edge: edge (%d, %d) already exists", d.U, d.V)
				}
				s.ovEdge[pairKey(u, v)] = true
			} else {
				if !s.edgeExists(u, v, n) {
					return errDelta(i, "remove_edge: no edge (%d, %d)", d.U, d.V)
				}
				s.ovEdge[pairKey(u, v)] = false
			}
		case OpAddAffinity, OpRemoveAffinity, OpReweightAffinity:
			if d.U == d.V {
				return errDelta(i, "%s: self-affinity on vertex %d", d.Op, d.U)
			}
			if !s.vertexOK(d.U, n, added) || !s.vertexOK(d.V, n, added) {
				return errDelta(i, "%s: no alive vertex pair (%d, %d)", d.Op, d.U, d.V)
			}
			switch d.Op {
			case OpAddAffinity:
				if d.Weight <= 0 {
					return errDelta(i, "add_affinity: weight must be positive, got %d", d.Weight)
				}
				if s.affWeight(u, v) != 0 {
					return errDelta(i, "add_affinity: affinity (%d, %d) already exists (use reweight_affinity)", d.U, d.V)
				}
				s.ovAff[pairKey(u, v)] = d.Weight
			case OpRemoveAffinity:
				if s.affWeight(u, v) == 0 {
					return errDelta(i, "remove_affinity: no affinity (%d, %d)", d.U, d.V)
				}
				s.ovAff[pairKey(u, v)] = 0
			default: // OpReweightAffinity
				if d.Weight <= 0 {
					return errDelta(i, "reweight_affinity: weight must be positive, got %d", d.Weight)
				}
				if s.affWeight(u, v) == 0 {
					return errDelta(i, "reweight_affinity: no affinity (%d, %d)", d.U, d.V)
				}
				s.ovAff[pairKey(u, v)] = d.Weight
			}
		case OpSetK:
			if d.K < 1 {
				return errDelta(i, "set_k: k must be >= 1, got %d", d.K)
			}
		default:
			return errDelta(i, "unknown op %q", d.Op)
		}
	}
	// Mark the overlay's dead vertices' former neighborhoods dirty at
	// apply time, not here; validation leaves no trace beyond scratch.
	return nil
}

// vertexOK reports whether id names an alive vertex under the pending
// overlay: ids added earlier in the batch count, pending-dead ones do
// not. n and added are the pre-batch id-space size and the number of
// add_vertex deltas seen so far (methods, not closures: validate runs
// on the zero-alloc apply path).
func (s *Session) vertexOK(id, n, added int) bool {
	if id < 0 || id >= n+added {
		return false
	}
	v := graph.V(id)
	if s.ovDead[v] {
		return false
	}
	if id < n {
		return s.alive[v]
	}
	return true // pending-added and not pending-dead
}

// edgeExists answers under the overlay: pending edge effects shadow the
// working graph.
func (s *Session) edgeExists(u, v graph.V, n int) bool {
	if e, ok := s.ovEdge[pairKey(u, v)]; ok {
		return e
	}
	if int(u) < n && int(v) < n {
		return s.g.HasEdge(u, v)
	}
	return false
}

// affWeight answers under the overlay; 0 means no affinity.
func (s *Session) affWeight(u, v graph.V) int64 {
	if w, ok := s.ovAff[pairKey(u, v)]; ok {
		return w
	}
	return s.aff[pairKey(u, v)]
}

// applyOne applies one pre-validated delta to the working state.
func (s *Session) applyOne(d *Delta) {
	u, v := graph.V(d.U), graph.V(d.V)
	switch d.Op {
	case OpAddVertex:
		id := s.g.AddVertex()
		s.alive = append(s.alive, true)
		s.affNbr = append(s.affNbr, nil)
		s.dirtyIn = append(s.dirtyIn, false)
		s.nAlive++
		s.markDirty(id)
	case OpRemoveVertex:
		s.tmp = s.g.NeighborsInto(s.tmp, u)
		for _, w := range s.tmp {
			s.g.RemoveEdge(u, w)
			s.markDirty(w)
		}
		for _, w := range s.affNbr[u] {
			delete(s.aff, pairKey(u, w))
			s.affNbr[w] = removeSortedV(s.affNbr[w], u)
			s.markDirty(w)
		}
		s.affNbr[u] = s.affNbr[u][:0]
		s.alive[u] = false
		s.nAlive--
		s.markDirty(u)
	case OpAddEdge:
		s.g.AddEdge(u, v)
		s.markDirty(u)
		s.markDirty(v)
	case OpRemoveEdge:
		s.g.RemoveEdge(u, v)
		s.markDirty(u)
		s.markDirty(v)
	case OpAddAffinity:
		s.aff[pairKey(u, v)] = d.Weight
		s.affNbr[u] = insertSortedV(s.affNbr[u], v)
		s.affNbr[v] = insertSortedV(s.affNbr[v], u)
		s.markDirty(u)
		s.markDirty(v)
	case OpRemoveAffinity:
		delete(s.aff, pairKey(u, v))
		s.affNbr[u] = removeSortedV(s.affNbr[u], v)
		s.affNbr[v] = removeSortedV(s.affNbr[v], u)
		s.markDirty(u)
		s.markDirty(v)
	case OpReweightAffinity:
		s.aff[pairKey(u, v)] = d.Weight
		s.markDirty(u)
		s.markDirty(v)
	case OpSetK:
		s.k = d.K
		s.allDirty = true
	}
}

func (s *Session) markDirty(v graph.V) {
	if !s.dirtyIn[v] {
		s.dirtyIn[v] = true
		s.dirty = append(s.dirty, v)
	}
}
