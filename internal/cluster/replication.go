package cluster

// Session-log replication: the availability story for the delta-session
// endpoint. Sessions are primary-sticky — the worker owning base_hash
// serves every op — but each successful create/delta/close also extends
// the session's op log (a session.ExportRecord of verbatim request
// bodies) and is shipped as a record to the other members of base_hash's
// replica set over POST /internal/session/log. Sender and receiver
// extend their logs by one rule, session.ExportRecord.Extend, so a
// record either continues a log or is refused as a gap, which the
// sender answers with its full log (the catch-up). When the primary
// dies, the router's retry walks to a secondary, which finds the session
// id in its log but not in its live store, rebuilds it by replaying the
// log through service.ReplaySession (the session engine is
// deterministic, so the rebuilt state matches the uninterrupted original
// exactly), and serves the request as if nothing happened. Migration
// (handoff.go) ships the full log over the same wire.

import (
	"container/list"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"regcoal/internal/service"
	"regcoal/internal/session"
)

// sessionLogs is an LRU-capped store of session op logs, mirroring the
// session store's own eviction discipline so a replica cannot be made to
// hold logs for more sessions than it would ever serve. Every log is a
// full record that Extend replaces rather than mutates, so a log handed
// out is a stable snapshot.
type sessionLogs struct {
	mu   sync.Mutex
	cap  int
	byID map[string]*list.Element // of *heldLog
	ll   *list.List               // front = most recently touched
}

// heldLog is one session's log plus the peers whose last ship of it
// failed: the replica-lag gauge counts them.
type heldLog struct {
	rec    *session.ExportRecord
	behind map[string]bool
}

func newSessionLogs(capacity int) *sessionLogs {
	if capacity <= 0 {
		capacity = 256
	}
	return &sessionLogs{cap: capacity, byID: make(map[string]*list.Element), ll: list.New()}
}

// extend applies rec to its session's log by ExportRecord.Extend and
// returns the version held afterwards (-1: none); on a gap the log
// stands.
func (sl *sessionLogs) extend(rec *session.ExportRecord) (int64, error) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	el := sl.byID[rec.SessionID]
	var held *session.ExportRecord
	if el != nil {
		held = el.Value.(*heldLog).rec
	}
	next, err := held.Extend(rec)
	switch {
	case next == held: // a duplicate, a gap, or a close of no log
	case next == nil:
		sl.removeLocked(el)
	case el == nil:
		sl.byID[rec.SessionID] = sl.ll.PushFront(&heldLog{rec: next})
		for sl.ll.Len() > sl.cap {
			sl.removeLocked(sl.ll.Back())
		}
	default:
		el.Value.(*heldLog).rec = next
		sl.ll.MoveToFront(el)
	}
	if next == nil {
		return -1, err
	}
	return next.Version, err
}

// drop removes a session's log.
func (sl *sessionLogs) drop(id string) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if el, ok := sl.byID[id]; ok {
		sl.removeLocked(el)
	}
}

func (sl *sessionLogs) removeLocked(el *list.Element) {
	delete(sl.byID, el.Value.(*heldLog).rec.SessionID)
	sl.ll.Remove(el)
}

// get returns a session's log, or nil.
func (sl *sessionLogs) get(id string) *session.ExportRecord {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	el, ok := sl.byID[id]
	if !ok {
		return nil
	}
	sl.ll.MoveToFront(el)
	return el.Value.(*heldLog).rec
}

// all returns every log without touching LRU order — the handoff
// engine's enumeration on a topology change.
func (sl *sessionLogs) all() []*session.ExportRecord {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	out := make([]*session.ExportRecord, 0, sl.ll.Len())
	for el := sl.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*heldLog).rec)
	}
	return out
}

func (sl *sessionLogs) len() int {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.ll.Len()
}

// setBehind records whether the last ship of a held log to peer failed;
// a log not held here is not tracked.
func (sl *sessionLogs) setBehind(id, peer string, behind bool) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if el, ok := sl.byID[id]; ok {
		h := el.Value.(*heldLog)
		switch {
		case !behind:
			delete(h.behind, peer)
		case h.behind == nil:
			h.behind = map[string]bool{peer: true}
		default:
			h.behind[peer] = true
		}
	}
}

// replicaLag reads the replica-lag gauge: per peer of the current view,
// and any other peer still behind, the sessions held here whose last
// ship to that peer failed.
func (w *Worker) replicaLag(emit func(string, int64)) {
	counts := map[string]int64{}
	if w.topo != nil {
		for _, peer := range w.topo.View().Nodes {
			counts[peer] = 0
		}
		delete(counts, w.cfg.Self)
	}
	w.sessLogs.mu.Lock()
	for el := w.sessLogs.ll.Front(); el != nil; el = el.Next() {
		for peer := range el.Value.(*heldLog).behind {
			counts[peer]++
		}
	}
	w.sessLogs.mu.Unlock()
	for peer, n := range counts {
		emit(peer, n)
	}
}

// SessionMissing implements service.Tier: it replays a session this
// worker holds as a log but not live — the failover moment, and the
// first request a migrated session sees on its new owner.
func (w *Worker) SessionMissing(id string) {
	if w.topo == nil {
		return
	}
	rec := w.sessLogs.get(id)
	if rec == nil {
		return
	}
	if err := w.svc.ReplaySession(rec.SessionID, rec.BaseHash, rec.Create, rec.Deltas); err != nil {
		w.rebuildFailures.Add(1)
		return
	}
	w.rebuilds.Add(1)
}

// SessionApplied implements service.Tier: it extends this worker's log
// by the op just applied, at the version the session assigned it, and
// ships the same record to the other members of the base hash's replica
// set. The service calls it before answering, so once the client has
// seen success a primary death is always recoverable from a secondary's
// log.
func (w *Worker) SessionApplied(req *service.DeltaRequest, body []byte, resp *service.DeltaResponse) {
	if w.topo == nil {
		return
	}
	rec := &session.ExportRecord{SessionID: req.SessionID, BaseHash: req.BaseHash, Version: resp.Version}
	switch req.Op {
	case "create":
		rec.SessionID, rec.BaseHash, rec.Create = resp.SessionID, resp.BaseHash, body
	case "", "delta":
		rec.Deltas = []json.RawMessage{body}
	case "close":
		rec.Closed = true
	default:
		return
	}
	if rec.BaseHash == "" {
		rec.BaseHash = w.sessionBaseHash(rec.SessionID)
	}
	if rec.SessionID == "" || rec.BaseHash == "" {
		return
	}
	if _, err := w.sessLogs.extend(rec); err != nil {
		// This worker's own log cannot follow the session: concurrent
		// unversioned deltas were logged out of apply order, or the log
		// was evicted. Drop it rather than keep a gap, and still ship
		// the record: a replica with a contiguous log extends it.
		w.logGaps.Add(1)
		w.sessLogs.drop(rec.SessionID)
	}
	for _, peer := range w.topo.View().Ring.Replicas(rec.BaseHash, w.replicaCount()) {
		if peer == w.cfg.Self {
			continue
		}
		if err := w.shipLog(peer, rec); err != nil {
			w.replFailures.Add(1)
			continue
		}
		w.replPushes.Add(1)
	}
}

// sessionBaseHash resolves the base hash of a session whose request did
// not echo one: the live session's, else the log's.
func (w *Worker) sessionBaseHash(id string) string {
	if sess, err := w.svc.Sessions().Get(id); err == nil {
		return sess.BaseHash()
	}
	if rec := w.sessLogs.get(id); rec != nil {
		return rec.BaseHash
	}
	return ""
}

// shipLog sends rec to peer over POST /internal/session/log. A 409 is a
// gap: the peer's log does not end where rec starts. shipLog then sends
// this worker's full log when it covers rec — the catch-up — and a close
// otherwise, so the peer drops a log it could never extend. The outcome
// sets or clears the session's replica-lag entry for peer.
func (w *Worker) shipLog(peer string, rec *session.ExportRecord) error {
	status, err := w.postLog(peer, rec)
	if status == http.StatusConflict {
		if full := w.sessLogs.get(rec.SessionID); full != nil && full.Version >= rec.Version {
			status, err = w.postLog(peer, full)
		} else {
			// Best effort: rec has failed to replicate either way.
			w.postLog(peer, &session.ExportRecord{SessionID: rec.SessionID, BaseHash: rec.BaseHash, Closed: true})
		}
	}
	if err == nil && status != http.StatusNoContent {
		err = fmt.Errorf("session log %s to %s: status %d", rec.SessionID, peer, status)
	}
	w.sessLogs.setBehind(rec.SessionID, peer, err != nil)
	return err
}

// postLog sends one record and returns the peer's status.
func (w *Worker) postLog(peer string, rec *session.ExportRecord) (int, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return 0, err
	}
	return w.send(peer, http.MethodPost, "/internal/session/log", payload, nil)
}

// handleSessionLog is the session-log wire: a peer ships a record — a
// full log, a suffix or a close — for a session whose replica set
// includes this worker. It is validated structurally (a malformed or
// truncated record is a 400, never a panic or a 5xx) and extends the
// held log by the rule the sender's own log follows; a record that does
// not continue the log is a gap, answered 409 with the version held.
func (w *Worker) handleSessionLog(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.writeError(rw, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if !w.checkEpoch(rw, r) {
		return
	}
	var rec session.ExportRecord
	dec := json.NewDecoder(http.MaxBytesReader(rw, r.Body, w.svc.Config().MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		w.writeError(rw, http.StatusBadRequest, fmt.Sprintf("decoding log record: %v", err))
		return
	}
	if err := rec.Validate(); err != nil {
		w.writeError(rw, http.StatusBadRequest, err.Error())
		return
	}
	if have, err := w.sessLogs.extend(&rec); err != nil {
		w.logGaps.Add(1)
		w.writeJSON(rw, http.StatusConflict, struct {
			Error string `json:"error"`
			Have  int64  `json:"have"`
		}{err.Error(), have})
		return
	}
	rw.WriteHeader(http.StatusNoContent)
}
