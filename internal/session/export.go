package session

// The session op log, one record type for replication, catch-up and
// migration alike. A session's entire state is a deterministic function
// of its raw op log — the create request body plus the ordered delta
// request bodies — so keeping a session alive on another cluster node
// means shipping exactly that. Validate checks a record's structure, and
// Extend is the one append rule every holder of a log applies, so a log
// never holds a gap. The Store keeps each session's log with the
// session itself and replays a received one, through the request
// decoder the service hands it, on first use.

import (
	"bytes"
	"encoding/json"
	"net/http"
)

// ExportRecord is a session's op log, or a piece of it, pinned to the
// base-graph hash and a session version. It takes one of three forms:
//
//   - a full log: the create body plus every delta applied since, with
//     Version == len(Deltas);
//   - a suffix: no create body, and Deltas are the batches that took the
//     session to Version, the first applied at Version-len(Deltas);
//   - a close: Closed, carrying no ops.
//
// Bodies are verbatim request bytes; the session engine is
// deterministic, so replaying a full log answers byte-identical
// responses at the same session id.
type ExportRecord struct {
	SessionID string            `json:"session_id"`
	BaseHash  string            `json:"base_hash"`
	Version   int64             `json:"version"`
	Create    json.RawMessage   `json:"create,omitempty"`
	Deltas    []json.RawMessage `json:"deltas,omitempty"`
	Closed    bool              `json:"closed,omitempty"`
}

// Validate checks an ExportRecord's structural integrity. Every failure
// is a 400 ClientError: a malformed record is the sender's fault, never
// a reason to panic or 500. The version arithmetic is the
// tamper/truncation guard — each delta body replays as exactly one
// applied batch, so a full log whose length disagrees with its version
// has been truncated (missing deltas) or duplicated (replayed appends),
// and a suffix longer than its version would start before the session
// existed; holding either would silently resurrect the wrong state.
func (rec *ExportRecord) Validate() error {
	if rec.SessionID == "" {
		return Errf(http.StatusBadRequest, "log record: missing session_id")
	}
	if rec.Version < 0 {
		return Errf(http.StatusBadRequest, "log %s: negative version %d", rec.SessionID, rec.Version)
	}
	switch n := int64(len(rec.Deltas)); {
	case rec.Closed:
		if len(rec.Create) > 0 || n > 0 {
			return Errf(http.StatusBadRequest, "log %s: a close carries no create body or deltas", rec.SessionID)
		}
	case len(rec.Create) > 0:
		if !json.Valid(rec.Create) {
			return Errf(http.StatusBadRequest, "log %s: create body is not valid JSON", rec.SessionID)
		}
		if rec.Version != n {
			return Errf(http.StatusBadRequest,
				"log %s: version %d disagrees with %d logged deltas (truncated or duplicated op log)",
				rec.SessionID, rec.Version, n)
		}
	case n == 0:
		return Errf(http.StatusBadRequest, "log %s: a suffix without a create body carries no deltas", rec.SessionID)
	case n > rec.Version:
		return Errf(http.StatusBadRequest,
			"log %s: %d deltas cannot end at version %d (the suffix would start before version 0)",
			rec.SessionID, n, rec.Version)
	}
	for i, d := range rec.Deltas {
		if len(d) == 0 || !json.Valid(d) {
			return Errf(http.StatusBadRequest, "log %s: delta %d is not valid JSON", rec.SessionID, i)
		}
	}
	return nil
}

// Extend returns the log that results from applying the valid record
// add to rec, a full log or nil when none is held. Neither is modified,
// and what Extend stores shares no memory with add:
//
//   - a close returns nil: the log is dropped;
//   - a record at a version the log already holds is a duplicate and
//     returns rec unchanged;
//   - a full record replaces an older log, or none, with a copy of
//     itself;
//   - a suffix that starts at the log's version returns the log
//     extended by a copy of its deltas;
//   - anything else is a gap, a 409 ClientError, and rec stands:
//     appending would replay a state the session never had.
func (rec *ExportRecord) Extend(add *ExportRecord) (*ExportRecord, error) {
	switch {
	case add.Closed:
		return nil, nil
	case rec != nil && add.Version <= rec.Version:
		return rec, nil
	case len(add.Create) > 0:
		out := *add
		out.Create = bytes.Clone(add.Create)
		out.Deltas = appendCopies(nil, add.Deltas)
		return &out, nil
	}
	if start := add.Version - int64(len(add.Deltas)); rec == nil || start != rec.Version {
		return rec, Errf(http.StatusConflict, "log %s: gap, the suffix starts at version %d and the log held does not end there", add.SessionID, start)
	}
	out := *rec
	out.Version = add.Version
	// The full slice expression makes append copy rec's delta headers
	// (not their bytes) into a new array, so no two logs share one.
	out.Deltas = appendCopies(rec.Deltas[:len(rec.Deltas):len(rec.Deltas)], add.Deltas)
	return &out, nil
}

// appendCopies appends a copy of each body in src to dst.
func appendCopies(dst, src []json.RawMessage) []json.RawMessage {
	for _, b := range src {
		dst = append(dst, bytes.Clone(b))
	}
	return dst
}
