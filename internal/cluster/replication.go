package cluster

// Session-log replication: the availability story for the delta-session
// endpoint. Sessions are primary-sticky — the worker owning base_hash
// serves every op — and each holds its op log (a session.ExportRecord of
// verbatim request bodies) in the service's session store, extended by
// every apply in the apply's own critical section. The store returns the
// record each successful create/delta/close added, and the worker ships
// it to the other members of base_hash's replica set over POST
// /internal/session/log. Sender and receiver extend their logs by one
// rule, session.ExportRecord.Extend, so a record either continues a log
// or is refused as a gap, which the sender answers with its full log
// (the catch-up). A replica holds the log as a dormant session in the
// same store, under the same LRU and TTL; when the primary dies, the
// router's retry walks to a secondary, whose store replays the log on
// the session's first use (the session engine is deterministic, so the
// rebuilt state matches the uninterrupted original exactly) and serves
// the request as if nothing happened. Migration (handoff.go) ships the
// full log over the same wire.

import (
	"encoding/json"
	"fmt"
	"net/http"

	"regcoal/internal/service"
	"regcoal/internal/session"
)

// replicaLag reads the replica-lag gauge: per peer of the current view,
// and any other peer still behind, the sessions held here whose last
// ship to that peer failed.
func (w *Worker) replicaLag(emit func(string, int64)) {
	counts := w.svc.Sessions().ReplicaLag()
	if w.topo != nil {
		for _, peer := range w.topo.View().Nodes {
			if _, ok := counts[peer]; !ok && peer != w.cfg.Self {
				counts[peer] = 0
			}
		}
	}
	for peer, n := range counts {
		emit(peer, n)
	}
}

// SessionLogged implements service.Tier: it ships the record an op just
// added to its session's log — the full log on create, a suffix on
// delta, a close on close — to the other members of the base hash's
// replica set. The service calls it before answering, so once the
// client has seen success a primary death is always recoverable from a
// secondary's log.
func (w *Worker) SessionLogged(rec *session.ExportRecord) {
	if w.topo == nil {
		return
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

// shipLog sends rec to peer over POST /internal/session/log. A 409 is a
// gap: the peer's log does not end where rec starts. shipLog then sends
// this worker's full log when it covers rec — the catch-up — and a close
// otherwise, so the peer drops a log it could never extend. The outcome
// sets or clears the session's replica-lag entry for peer.
func (w *Worker) shipLog(peer string, rec *session.ExportRecord) error {
	status, err := w.postLog(peer, rec)
	if status == http.StatusConflict {
		if full := w.svc.Sessions().Log(rec.SessionID); full != nil && full.Version >= rec.Version {
			status, err = w.postLog(peer, full)
		} else {
			// Best effort: rec has failed to replicate either way.
			w.postLog(peer, &session.ExportRecord{SessionID: rec.SessionID, BaseHash: rec.BaseHash, Closed: true})
		}
	}
	if err == nil && status != http.StatusNoContent {
		err = fmt.Errorf("session log %s to %s: status %d", rec.SessionID, peer, status)
	}
	w.svc.Sessions().SetBehind(rec.SessionID, peer, err != nil)
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
// truncated record is a 400, never a panic or a 5xx) and received by the
// session store, which extends the held log by the rule the sender's own
// log follows; a record that does not continue the log is a gap,
// answered 409 with the version held.
func (w *Worker) handleSessionLog(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.writeError(rw, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if !w.checkEpoch(rw, r) {
		return
	}
	var rec session.ExportRecord
	dec := json.NewDecoder(http.MaxBytesReader(rw, r.Body, service.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		w.writeError(rw, http.StatusBadRequest, fmt.Sprintf("decoding log record: %v", err))
		return
	}
	if err := rec.Validate(); err != nil {
		w.writeError(rw, http.StatusBadRequest, err.Error())
		return
	}
	if have, err := w.svc.Sessions().Receive(&rec); err != nil {
		w.logGaps.Add(1)
		w.writeJSON(rw, http.StatusConflict, struct {
			Error string `json:"error"`
			Have  int64  `json:"have"`
		}{err.Error(), have})
		return
	}
	rw.WriteHeader(http.StatusNoContent)
}
