package service

// Session replay: rebuilding a delta-solve session from its raw op log.
// The cluster replicates each session's create body and ordered delta
// bodies to the secondary replicas of its base hash; when the primary
// dies, the replica that inherits the session re-runs the log through
// the same machinery that served it live. The session engine is
// deterministic, so the rebuilt session's state — version, id space,
// solve, even the path labels of subsequent deltas — is identical to
// the uninterrupted original's, and the client's next request answers
// byte-identically.

import (
	"encoding/json"
	"fmt"

	"regcoal/internal/graph"
	"regcoal/internal/session"
)

// ReplaySession rebuilds session id from its replicated op log: create
// is the original create request body, deltas the ordered delta request
// bodies that were applied since (a full session.ExportRecord's Create
// and Deltas pass straight in). The create is decoded exactly as
// handleDelta decodes it, under the same vertex cap. The session
// registers under the same id (409 inside if it is already live).
// baseHash, when empty, is recomputed from the base graph exactly like
// handleDelta does.
func (s *Server) ReplaySession(id, baseHash string, create []byte, deltas []json.RawMessage) error {
	req, f, err := decodeDelta(create, s.cfg.MaxVertices)
	if err != nil {
		return fmt.Errorf("replay %s: create: %w", id, err)
	}
	if f == nil {
		return fmt.Errorf("replay %s: create log entry carries no graph", id)
	}
	k := f.K
	if req.K > 0 {
		k = req.K
	}
	if baseHash == "" {
		baseHash = graph.CanonicalForm(&graph.File{G: f.G, K: k}).Hash
	}
	if _, err := s.sessions.CreateWithID(id, f, k, baseHash); err != nil {
		return fmt.Errorf("replay %s: %w", id, err)
	}
	discard := func(sol *session.Solve) (any, error) { return nil, nil }
	for i, body := range deltas {
		var dr DeltaRequest
		if err := json.Unmarshal(body, &dr); err != nil {
			return fmt.Errorf("replay %s: decoding delta %d: %w", id, i, err)
		}
		version := int64(-1)
		if dr.Version != nil {
			version = *dr.Version
		}
		if _, err := s.sessions.Apply(id, version, dr.Deltas, discard); err != nil {
			return fmt.Errorf("replay %s: applying delta %d: %w", id, i, err)
		}
	}
	return nil
}
