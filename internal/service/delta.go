package service

// POST /v1/coalesce/delta — the incremental delta-solve session API
// (internal/session). One endpoint, three operations selected by "op":
//
//	create  pin a base graph: {"op":"create","graph":{...},"k":4}
//	        → {"session_id","base_hash","version":0,"path":"fresh","result":{...}}
//	delta   apply an edit batch: {"op":"delta","session_id":...,
//	        "base_hash":...,"version":N,"deltas":[{"op":"add_edge","u":0,"v":3},...]}
//	        → {"session_id","version":N+1,"path":"memo|incremental|fresh","result":{...}}
//	close   {"op":"close","session_id":...} → {"closed":true}
//
// base_hash is the WL canonical hash of the base graph: the cluster
// router routes delta requests by it, so a session stays shard-sticky
// (the worker that created it keeps serving it). version is optional
// optimistic concurrency: when present it must match the session's
// current version (else 409), and concurrent duplicates of the same
// versioned batch collapse onto one application via the store's
// per-session singleflight. All client-side failures (malformed deltas,
// unknown vertex ids, duplicate edges, k underflow, unknown or evicted
// sessions) answer structured 4xx JSON — never a 5xx, never a panic.

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"regcoal/internal/graph"
	"regcoal/internal/obs"
	"regcoal/internal/session"
)

// DeltaRequest is the body of POST /v1/coalesce/delta.
type DeltaRequest struct {
	// Op selects the operation: "create", "delta" (default), "close".
	Op string `json:"op,omitempty"`
	// Graph and K describe the base instance (create only; K overrides
	// the graph's own k when positive).
	Graph *GraphSpec `json:"graph,omitempty"`
	K     int        `json:"k,omitempty"`
	// SessionID addresses an existing session (delta and close).
	SessionID string `json:"session_id,omitempty"`
	// BaseHash, when present on a delta request, must match the
	// session's base hash (409 otherwise). The cluster router uses it as
	// the routing key.
	BaseHash string `json:"base_hash,omitempty"`
	// Version, when present, is the expected session version (409 on
	// mismatch); concurrent duplicates of one versioned batch collapse.
	Version *int64 `json:"version,omitempty"`
	// Deltas is the edit batch (delta only), validated atomically.
	Deltas []session.Delta `json:"deltas,omitempty"`
}

// DeltaResult is the solve carried by create and delta responses, in
// session vertex-id space.
type DeltaResult struct {
	K int `json:"k"`
	// Vertices counts alive vertices; NextVertex is the id the next
	// add_vertex delta will take (dead ids are never reused).
	Vertices   int  `json:"vertices"`
	NextVertex int  `json:"next_vertex"`
	Colorable  bool `json:"colorable"`

	CoalescedMoves  int   `json:"coalesced_moves"`
	CoalescedWeight int64 `json:"coalesced_weight"`
	RemainingMoves  int   `json:"remaining_moves"`
	RemainingWeight int64 `json:"remaining_weight"`

	// Classes is the coalescing: vertex classes over alive session ids,
	// ordered by smallest member.
	Classes [][]int `json:"classes"`
	// Coloring assigns a register per session id when Colorable (dead
	// vertices and uncolorable components get -1).
	Coloring []int `json:"coloring,omitempty"`
}

// DeltaResponse is the body of a successful /v1/coalesce/delta response.
type DeltaResponse struct {
	SessionID string `json:"session_id"`
	BaseHash  string `json:"base_hash,omitempty"`
	Version   int64  `json:"version"`
	// Path labels how the solve was obtained: "fresh", "incremental",
	// "memo", or "cached".
	Path   string       `json:"path,omitempty"`
	Closed bool         `json:"closed,omitempty"`
	Result *DeltaResult `json:"result,omitempty"`
}

// Sessions exposes the session store (for tests and embedders).
func (s *Server) Sessions() *session.Store { return s.sessions }

// sessionError lowers a session.ClientError to the solve path's
// status-carrying error type.
func sessionError(err error) error {
	var ce *session.ClientError
	if errors.As(err, &ce) {
		return &httpError{status: ce.Status, msg: ce.Msg}
	}
	return err
}

func renderDeltaResult(sol *session.Solve) *DeltaResult {
	res := &DeltaResult{
		K:               sol.K,
		Vertices:        sol.Alive,
		NextVertex:      sol.NextVertex,
		Colorable:       sol.Colorable,
		CoalescedMoves:  sol.CoalescedMoves,
		CoalescedWeight: sol.CoalescedWeight,
		RemainingMoves:  sol.RemainingMoves,
		RemainingWeight: sol.RemainingWeight,
		Classes:         make([][]int, sol.NumClasses),
	}
	for v, c := range sol.ClassID {
		if c >= 0 {
			res.Classes[c] = append(res.Classes[c], v)
		}
	}
	if sol.Colorable {
		res.Coloring = append([]int(nil), sol.Coloring...)
	}
	return res
}

func (s *Server) renderDeltaResponse(id, baseHash string, sol *session.Solve) *DeltaResponse {
	return &DeltaResponse{
		SessionID: id,
		BaseHash:  baseHash,
		Version:   sol.Version,
		Path:      string(sol.Path),
		Result:    renderDeltaResult(sol),
	}
}

func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, &httpError{status: http.StatusMethodNotAllowed, msg: "POST required"})
		return
	}
	s.metrics.DeltaRequests.Add(1)
	s.metrics.InFlight.Add(1)
	defer s.metrics.InFlight.Add(-1)

	tr := s.startTrace(obs.EndpointDelta, r)
	defer s.finishTrace(tr)
	w.Header().Set(TraceIDHeader, tr.ID.String())
	fail := func(err error) {
		err = sessionError(err)
		tr.Status = ErrorStatus(err)
		s.writeError(w, err)
	}

	// The verbatim body is kept: a tier replicates it as the op log. A
	// create's graph is built inside the one decode span.
	tr.BeginPhase(obs.PhaseDecode)
	var req DeltaRequest
	var f *graph.File
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		err = badRequest("decoding delta request: %v", err)
	} else {
		req, f, err = decodeDelta(body, s.cfg.MaxVertices)
	}
	tr.EndPhase()
	if err != nil {
		fail(err)
		return
	}

	// A tier replicates each session's op log: the create body starts
	// it, and the store returns the record each op added, to ship.
	var resp *DeltaResponse
	var rec *session.ExportRecord
	switch req.Op {
	case "create":
		k := createK(&req, f)
		// The base hash is computed exactly like RoutingHash so that the
		// cluster router's key for the create body and for subsequent
		// delta bodies (which echo it) land on the same shard; a form the
		// router forwarded is verified instead.
		tr.BeginPhase(obs.PhaseCanon)
		baseHash := s.canonicalForm(&graph.File{G: f.G, K: k}, r.Header.Get(CanonHeader)).Hash
		tr.EndPhase()
		var logBody []byte
		if s.tier != nil {
			logBody = body
		}
		tr.BeginPhase(obs.PhaseRace)
		sess, added, err := s.sessions.Create(f, k, baseHash, logBody)
		tr.EndPhase()
		if err != nil {
			fail(err)
			return
		}
		sess.View(func(sol *session.Solve) {
			resp = s.renderDeltaResponse(sess.ID(), sess.BaseHash(), sol)
		})
		rec = added

	case "", "delta":
		if req.SessionID == "" {
			fail(badRequest("delta requires a session_id"))
			return
		}
		version := int64(-1)
		if req.Version != nil {
			version = *req.Version
			if version < 0 {
				fail(badRequest("version must be non-negative"))
				return
			}
		}
		tr.BeginPhase(obs.PhaseRace)
		out, added, err := s.sessions.Apply(req.SessionID, req.BaseHash, version, req.Deltas, body, func(sol *session.Solve) (any, error) {
			return s.renderDeltaResponse(req.SessionID, req.BaseHash, sol), nil
		})
		tr.EndPhase()
		if err != nil {
			fail(err)
			return
		}
		resp, rec = out.(*DeltaResponse), added

	case "close":
		if req.SessionID == "" {
			fail(badRequest("close requires a session_id"))
			return
		}
		added, err := s.sessions.Close(req.SessionID)
		if err != nil {
			fail(err)
			return
		}
		resp, rec = &DeltaResponse{SessionID: req.SessionID, Closed: true}, added

	default:
		fail(badRequest("unknown op %q (want create, delta, close)", req.Op))
		return
	}

	tr.Status = http.StatusOK
	tr.BeginPhase(obs.PhaseEncode)
	data, err := json.Marshal(resp)
	tr.EndPhase()
	if err != nil {
		s.metrics.Errors.Add(1)
		tr.Status = http.StatusInternalServerError
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	if s.tier != nil && rec != nil {
		// Before answering: once the client has seen success, the op
		// must already be recoverable elsewhere.
		s.tier.SessionLogged(rec)
	}
	if h := obs.BuildPhasesHeader(tr); h != "" {
		w.Header().Set(PhasesHeader, h)
	}
	s.writeRaw(w, http.StatusOK, data)
}

// decodeCreate reads a create body into its base instance and register
// count exactly as handleDelta reads it live: the session store replays
// a dormant session's op log through it.
func decodeCreate(body []byte, maxVertices int) (*graph.File, int, error) {
	req, f, err := decodeDelta(body, maxVertices)
	if err != nil {
		return nil, 0, err
	}
	if f == nil {
		return nil, 0, errors.New("create log entry carries no graph")
	}
	return f, createK(&req, f), nil
}

// createK is a create's register count: the request's k, when
// positive, overrides the graph's.
func createK(req *DeltaRequest, f *graph.File) int {
	if req.K > 0 {
		return req.K
	}
	return f.K
}
