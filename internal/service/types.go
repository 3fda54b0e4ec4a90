package service

import (
	"fmt"
	"strings"

	"regcoal/internal/graph"
)

// Wire schema of the online coalescing API. Responses are rendered through
// a single deterministic path (see render.go) so that a repeated instance
// is answered with a byte-identical body whether it was computed or served
// from the cache; anything non-deterministic (timing, cache disposition)
// travels in headers, never in the body.

// Move is a weighted move edge in a native-JSON graph.
type Move struct {
	X      int   `json:"x"`
	Y      int   `json:"y"`
	Weight int64 `json:"weight,omitempty"`
}

// Pin precolors a vertex.
type Pin struct {
	V     int `json:"v"`
	Color int `json:"color"`
}

// GraphSpec carries an interference graph in one of three encodings:
// native JSON (vertices/edges/moves/precolored), the textual challenge
// format (text), or DIMACS .col with regcoal comments (dimacs). Exactly
// one encoding must be used.
type GraphSpec struct {
	Vertices   int      `json:"vertices,omitempty"`
	Names      []string `json:"names,omitempty"`
	Edges      [][2]int `json:"edges,omitempty"`
	Moves      []Move   `json:"moves,omitempty"`
	Precolored []Pin    `json:"precolored,omitempty"`
	K          int      `json:"k,omitempty"`

	Text   string `json:"text,omitempty"`
	Dimacs string `json:"dimacs,omitempty"`
}

// ToFile decodes the spec into an instance. maxVertices > 0 caps the
// vertex count in every encoding: an over-cap spec is refused with a
// *graph.SizeError before its graph is built (a text or DIMACS payload is
// still parsed to its end, so a later syntax error wins).
func (s *GraphSpec) ToFile(maxVertices int) (*graph.File, error) {
	encodings := 0
	if s.Text != "" {
		encodings++
	}
	if s.Dimacs != "" {
		encodings++
	}
	native := s.Vertices > 0 || len(s.Edges) > 0 || len(s.Names) > 0 ||
		len(s.Moves) > 0 || len(s.Precolored) > 0 || s.K > 0
	if native {
		encodings++
	}
	if encodings > 1 {
		// Mixing encodings would silently drop the loser's fields (e.g.
		// native pins alongside a dimacs payload); refuse instead.
		return nil, fmt.Errorf("graph: use exactly one of native fields, text, dimacs")
	}
	switch {
	case s.Text != "":
		return graph.ReadFrom(strings.NewReader(s.Text), maxVertices)
	case s.Dimacs != "":
		return graph.ReadDIMACSFile(strings.NewReader(s.Dimacs), maxVertices)
	default:
		return s.toNativeFile(maxVertices)
	}
}

func (s *GraphSpec) toNativeFile(maxVertices int) (*graph.File, error) {
	edges := make([]graph.V, 0, 2*len(s.Edges))
	for _, e := range s.Edges {
		edges = append(edges, graph.V(e[0]), graph.V(e[1]))
	}
	moves := make([]graph.Affinity, len(s.Moves))
	for i, m := range s.Moves {
		moves[i] = graph.Affinity{X: graph.V(m.X), Y: graph.V(m.Y), Weight: m.Weight}
	}
	pins := make([]int, 0, 2*len(s.Precolored))
	for _, p := range s.Precolored {
		pins = append(pins, p.V, p.Color)
	}
	g, err := nativeGraph(max(s.Vertices, len(s.Names)), edges, moves, pins, maxVertices)
	if err != nil {
		return nil, err
	}
	for i, name := range s.Names {
		g.SetName(graph.V(i), name)
	}
	return &graph.File{G: g, K: s.K}, nil
}

// nativeGraph builds a native graph from its parts: edges as endpoint
// pairs, moves as affinities whose zero weight means one move, pins as
// (vertex, color) pairs, each in body order. Every edge, then every
// move, then every pin is checked against the n declared vertices, then
// n against the cap, and only then is the graph built — so the first
// error in body order is the one reported, and a body declaring a
// billion vertices allocates nothing for them. Both decoders build
// through it.
func nativeGraph(n int, edges []graph.V, moves []graph.Affinity, pins []int, maxVertices int) (*graph.Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph: empty native graph (set vertices or names)")
	}
	inRange := func(v int) error {
		if v < 0 || v >= n {
			return fmt.Errorf("graph: vertex %d out of range [0,%d)", v, n)
		}
		return nil
	}
	for i := 0; i < len(edges); i += 2 {
		u, v := int(edges[i]), int(edges[i+1])
		if err := inRange(u); err != nil {
			return nil, err
		}
		if err := inRange(v); err != nil {
			return nil, err
		}
		if u == v {
			return nil, fmt.Errorf("graph: self-loop on vertex %d", u)
		}
	}
	for _, m := range moves {
		if err := inRange(int(m.X)); err != nil {
			return nil, err
		}
		if err := inRange(int(m.Y)); err != nil {
			return nil, err
		}
		if m.Weight < 0 {
			return nil, fmt.Errorf("graph: negative move weight %d", m.Weight)
		}
	}
	for i := 0; i < len(pins); i += 2 {
		if err := inRange(pins[i]); err != nil {
			return nil, err
		}
		if pins[i+1] < 0 {
			return nil, fmt.Errorf("graph: negative precolor %d", pins[i+1])
		}
	}
	if maxVertices > 0 && n > maxVertices {
		return nil, &graph.SizeError{N: n, Limit: maxVertices}
	}
	for i := range moves {
		if moves[i].Weight == 0 {
			moves[i].Weight = 1
		}
	}
	g := graph.FromEdges(n, edges, moves)
	for i := 0; i < len(pins); i += 2 {
		g.SetPrecolored(graph.V(pins[i]), pins[i+1])
	}
	return g, nil
}

// Request is the body of POST /v1/coalesce, /v1/allocate and /v1/spill,
// and one item of a POST /v1/batch.
type Request struct {
	Graph *GraphSpec `json:"graph,omitempty"`
	// K overrides the register count carried by the graph encoding.
	K int `json:"k,omitempty"`
	// DeadlineMS bounds the strategy race; 0 uses the server default,
	// values above the server maximum are clamped.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Strategies restricts the coalescing portfolio (names from the
	// coalesce registry plus "exact"); empty runs the server's portfolio.
	Strategies []string `json:"strategies,omitempty"`
	// NoCache bypasses the result cache for this request.
	NoCache bool `json:"no_cache,omitempty"`
}

// CoalesceResult is the body of a successful /v1/coalesce response.
type CoalesceResult struct {
	Hash     string `json:"hash"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	Moves    int    `json:"moves"`
	K        int    `json:"k"`

	// Strategy is the portfolio member whose answer won the race.
	Strategy        string `json:"strategy"`
	CoalescedMoves  int    `json:"coalesced_moves"`
	CoalescedWeight int64  `json:"coalesced_weight"`
	RemainingWeight int64  `json:"remaining_weight"`
	Colorable       bool   `json:"colorable"`
	// DeadlineHit records that the race was cut off and the answer is the
	// best found, not necessarily the best the full portfolio could do.
	DeadlineHit bool `json:"deadline_hit"`

	// Classes is the coalescing: vertex classes in request numbering.
	Classes [][]int `json:"classes"`
	// Coloring assigns a register per vertex when Colorable.
	Coloring []int `json:"coloring,omitempty"`
}

// SpillResult is the body of a successful /v1/spill response: the spill
// set that lowers the instance to a greedy-k-colorable one, and a proper
// k-coloring of the residual (spilled vertices get -1).
type SpillResult struct {
	Hash     string `json:"hash"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	Moves    int    `json:"moves"`
	K        int    `json:"k"`

	Strategy string `json:"strategy"`
	// Spilled lists the evicted vertices (request numbering, sorted).
	Spilled []int `json:"spilled,omitempty"`
	Spills  int   `json:"spills"`
	// SpillCost is the total eviction cost (== Spills under unit costs).
	SpillCost int64 `json:"spill_cost"`
	// Optimal marks a spill set proven cost-minimal (exact member won
	// with a completed search).
	Optimal     bool  `json:"optimal"`
	Coloring    []int `json:"coloring"`
	DeadlineHit bool  `json:"deadline_hit"`
}

// AllocateResult is the body of a successful /v1/allocate response.
type AllocateResult struct {
	Hash     string `json:"hash"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	Moves    int    `json:"moves"`
	K        int    `json:"k"`

	Strategy        string `json:"strategy"`
	Coloring        []int  `json:"coloring"`
	Spilled         []int  `json:"spilled,omitempty"`
	Spills          int    `json:"spills"`
	CoalescedWeight int64  `json:"coalesced_weight"`
	RemainingWeight int64  `json:"remaining_weight"`
	DeadlineHit     bool   `json:"deadline_hit"`
}

// BatchSolveRequest is the body of POST /v1/batch: one kind applied to
// many single-graph requests, decoded once and fanned out on the worker
// pool (and, in cluster mode, across shards).
type BatchSolveRequest struct {
	// Kind selects the portfolio: "coalesce" (default), "allocate", "spill".
	Kind string `json:"kind,omitempty"`
	// Items are the instances to solve, answered in order.
	Items []Request `json:"items"`
}

// BatchEntry is one element of a batch response: exactly one of the result
// fields, or Error.
type BatchEntry struct {
	Coalesce *CoalesceResult `json:"coalesce,omitempty"`
	Allocate *AllocateResult `json:"allocate,omitempty"`
	Spill    *SpillResult    `json:"spill,omitempty"`
	Error    string          `json:"error,omitempty"`
}

// BatchResponse is the body of a batch request's response, results in
// request order.
type BatchResponse struct {
	Results []BatchEntry `json:"results"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}
