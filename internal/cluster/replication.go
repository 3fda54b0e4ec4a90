package cluster

// Session-log replication: the availability story for the delta-session
// endpoint. Sessions are primary-sticky — the worker owning base_hash
// serves every op — but each successful create/delta/close is also
// recorded as its raw request body in an op log and pushed to the other
// members of base_hash's replica set over POST /internal/session/log.
// When the primary dies, the router's retry walks to a secondary, which
// finds the session id in its replicated log but not in its live store,
// rebuilds it by replaying the log through service.ReplaySession (the
// session engine is deterministic, so the rebuilt state matches the
// uninterrupted original exactly), and serves the request as if nothing
// happened. Replication is synchronous and best-effort: a failed push
// leaves the per-peer replica-lag gauge elevated, which is the signal
// that a failover from this worker could lose recent ops.

import (
	"bytes"
	"container/list"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"regcoal/internal/service"
)

// sessionLog is one session's replicated raw op log.
type sessionLog struct {
	ID       string
	BaseHash string
	Create   json.RawMessage
	Deltas   []json.RawMessage
}

// sessionLogs is an LRU-capped store of replicated op logs, mirroring
// the session store's own eviction discipline so a replica cannot be
// made to hold logs for more sessions than it would ever serve.
type sessionLogs struct {
	mu   sync.Mutex
	cap  int
	byID map[string]*list.Element // of *sessionLog
	ll   *list.List               // front = most recently touched
}

func newSessionLogs(capacity int) *sessionLogs {
	if capacity <= 0 {
		capacity = 256
	}
	return &sessionLogs{cap: capacity, byID: make(map[string]*list.Element), ll: list.New()}
}

// upsertCreate registers (or resets) a session's log under its create
// body.
func (sl *sessionLogs) upsertCreate(id, baseHash string, create []byte) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if el, ok := sl.byID[id]; ok {
		lg := el.Value.(*sessionLog)
		lg.BaseHash = baseHash
		lg.Create = append(json.RawMessage(nil), create...)
		lg.Deltas = nil
		sl.ll.MoveToFront(el)
		return
	}
	lg := &sessionLog{ID: id, BaseHash: baseHash, Create: append(json.RawMessage(nil), create...)}
	sl.byID[id] = sl.ll.PushFront(lg)
	for sl.ll.Len() > sl.cap {
		oldest := sl.ll.Back()
		delete(sl.byID, oldest.Value.(*sessionLog).ID)
		sl.ll.Remove(oldest)
	}
}

// appendDelta extends a known session's log; an unknown id (create
// never replicated here, or evicted) is dropped — without the create
// the tail is unreplayable anyway.
func (sl *sessionLogs) appendDelta(id string, body []byte) bool {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	el, ok := sl.byID[id]
	if !ok {
		return false
	}
	lg := el.Value.(*sessionLog)
	lg.Deltas = append(lg.Deltas, append(json.RawMessage(nil), body...))
	sl.ll.MoveToFront(el)
	return true
}

// drop removes a session's log (close, or post-rebuild cleanup).
func (sl *sessionLogs) drop(id string) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if el, ok := sl.byID[id]; ok {
		delete(sl.byID, id)
		sl.ll.Remove(el)
	}
}

// get returns a stable snapshot of a session's log, or nil.
func (sl *sessionLogs) get(id string) *sessionLog {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	el, ok := sl.byID[id]
	if !ok {
		return nil
	}
	lg := el.Value.(*sessionLog)
	out := &sessionLog{ID: lg.ID, BaseHash: lg.BaseHash, Create: lg.Create}
	out.Deltas = append(out.Deltas, lg.Deltas...)
	sl.ll.MoveToFront(el)
	return out
}

// all returns a stable snapshot of every log, without touching LRU
// order — the handoff engine's enumeration on a topology change.
func (sl *sessionLogs) all() []*sessionLog {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	out := make([]*sessionLog, 0, sl.ll.Len())
	for el := sl.ll.Front(); el != nil; el = el.Next() {
		lg := el.Value.(*sessionLog)
		cp := &sessionLog{ID: lg.ID, BaseHash: lg.BaseHash, Create: lg.Create}
		cp.Deltas = append(cp.Deltas, lg.Deltas...)
		out = append(out, cp)
	}
	return out
}

func (sl *sessionLogs) len() int {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.ll.Len()
}

// sessionLogOp is the replication wire format of POST
// /internal/session/log.
type sessionLogOp struct {
	// Op is "create" (Body is the create request), "append" (Body is one
	// delta request), or "delete" (session closed).
	Op        string          `json:"op"`
	SessionID string          `json:"session_id"`
	BaseHash  string          `json:"base_hash,omitempty"`
	Body      json.RawMessage `json:"body,omitempty"`
}

// SessionMissing implements service.Tier: it replays a session this
// worker holds as a replicated log but not live — the failover moment.
// Logs without a create are left alone.
func (w *Worker) SessionMissing(id string) {
	if w.topo == nil {
		return
	}
	lg := w.sessLogs.get(id)
	if lg == nil || len(lg.Create) == 0 {
		return
	}
	if err := w.svc.ReplaySession(lg.ID, lg.BaseHash, lg.Create, byteSlices(lg.Deltas)); err != nil {
		w.rebuildFailures.Add(1)
		return
	}
	w.rebuilds.Add(1)
}

func byteSlices(raws []json.RawMessage) [][]byte {
	out := make([][]byte, len(raws))
	for i, r := range raws {
		out[i] = r
	}
	return out
}

// SessionApplied implements service.Tier: it records a successful
// session op (its verbatim request body) locally and pushes it to the
// other members of the base hash's replica set. The service calls it
// before answering, so once the client has seen success a primary death
// is always recoverable from a secondary's log.
func (w *Worker) SessionApplied(req *service.DeltaRequest, body []byte, resp *service.DeltaResponse) {
	if w.topo == nil {
		return
	}
	op := req.Op
	if op == "" {
		op = "delta"
	}
	var id, baseHash string
	wireOp := ""
	switch op {
	case "create":
		id, baseHash = resp.SessionID, resp.BaseHash
		w.sessLogs.upsertCreate(id, baseHash, body)
		wireOp = "create"
	case "delta":
		id = req.SessionID
		baseHash = w.sessionBaseHash(req)
		w.sessLogs.appendDelta(id, body)
		wireOp = "append"
	case "close":
		id = req.SessionID
		baseHash = req.BaseHash
		if lg := w.sessLogs.get(id); lg != nil && baseHash == "" {
			baseHash = lg.BaseHash
		}
		w.sessLogs.drop(id)
		wireOp = "delete"
	default:
		return
	}
	if id == "" || baseHash == "" {
		return
	}
	for _, peer := range w.topo.View().Ring.Replicas(baseHash, w.replicaCount()) {
		if peer == w.cfg.Self {
			continue
		}
		w.pushSessionLog(peer, wireOp, id, baseHash, body)
	}
}

// sessionBaseHash resolves a delta request's base hash: the echoed
// base_hash when present, else the live session's, else the log's.
func (w *Worker) sessionBaseHash(req *service.DeltaRequest) string {
	if req.BaseHash != "" {
		return req.BaseHash
	}
	if sess, err := w.svc.Sessions().Get(req.SessionID); err == nil {
		return sess.BaseHash()
	}
	if lg := w.sessLogs.get(req.SessionID); lg != nil {
		return lg.BaseHash
	}
	return ""
}

// pushSessionLog sends one op-log record to a replica. The per-peer lag
// gauge rises before the push and falls only on success, so a replica
// that is down reads as persistent lag until the next successful push
// sequence catches it up (or the session closes).
func (w *Worker) pushSessionLog(peer, op, id, baseHash string, body []byte) {
	lag := w.replLag.With(peer)
	lag.Add(1)
	payload, err := json.Marshal(sessionLogOp{Op: op, SessionID: id, BaseHash: baseHash, Body: body})
	if err != nil {
		w.replFailures.Add(1)
		return
	}
	resp, err := w.doEpochRequest(peer, func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPost, peer+"/internal/session/log", bytes.NewReader(payload))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	})
	if err != nil {
		w.replFailures.Add(1)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		w.replFailures.Add(1)
		return
	}
	w.replPushes.Add(1)
	lag.Add(-1)
}

// handleInternalSessionLog is the replication wire: a peer pushes one
// op-log record for a session whose replica set includes this worker.
func (w *Worker) handleInternalSessionLog(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.writeError(rw, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if !w.checkEpoch(rw, r) {
		return
	}
	var op sessionLogOp
	dec := json.NewDecoder(http.MaxBytesReader(rw, r.Body, w.svc.Config().MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&op); err != nil {
		w.writeError(rw, http.StatusBadRequest, fmt.Sprintf("decoding log op: %v", err))
		return
	}
	if op.SessionID == "" {
		w.writeError(rw, http.StatusBadRequest, "missing session_id")
		return
	}
	switch op.Op {
	case "create":
		w.sessLogs.upsertCreate(op.SessionID, op.BaseHash, op.Body)
	case "append":
		w.sessLogs.appendDelta(op.SessionID, op.Body)
	case "delete":
		w.sessLogs.drop(op.SessionID)
	default:
		w.writeError(rw, http.StatusBadRequest, fmt.Sprintf("unknown log op %q", op.Op))
		return
	}
	rw.WriteHeader(http.StatusNoContent)
}
