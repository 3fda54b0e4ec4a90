package cluster

// Cache handoff and session migration: what makes a topology change
// boring for clients. When a worker adopts a new view it compares the
// old and new replica sets of everything it holds — cache entries by
// their canonical routing hash, session op logs by their base hash —
// and streams whatever gained a new owner to that owner, in the same
// canonical-entry wire format the peer-fill path uses (PUT
// /internal/cache) and the session import wire (POST
// /internal/session/import). The stream is rate-limited (HandoffRate),
// gets one retry round over its failures (resumable: a push that missed
// is re-attempted before the round is declared done), and runs under
// the regcoal_handoff_* counter family. While it streams, the old view
// stays installed as a read fallback (Worker.prev) for HandoffWindow,
// so a request that reaches the new owner before its entry does falls
// back to the old owner instead of re-solving — no cold cache.
//
// Sessions additionally migrate on LRU eviction: the evicted primary
// re-pushes the op log to the hash's current primary (see
// onSessionEvict), so the session survives as rebuildable state wherever
// the ring now points.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"regcoal/internal/service"
	"regcoal/internal/session"
)

// handoffPush is one pending unit of the stream: a cache entry key or a
// session export, destined for one new owner.
type handoffPush struct {
	peer string
	key  string         // cache entry key, when a cache push
	rec  *sessionExport // session export, when a session push
}

// sessionExport pairs a session's export record with its routing hash.
type sessionExport struct {
	baseHash string
	rec      *session.ExportRecord
}

// startHandoff installs the pre-change view as the read fallback and
// streams reassigned state in the background. Called with the old and
// freshly installed views under no locks.
func (w *Worker) startHandoff(old, next *TopologyView) {
	w.prev.Store(old)
	window := w.cfg.HandoffWindow
	if window <= 0 {
		window = 5 * time.Second
	}
	time.AfterFunc(window, func() {
		// Clear only our own fallback: a later reshard's window must
		// not be cut short by this one's timer.
		w.prev.CompareAndSwap(old, nil)
	})
	w.handoffRounds.Add(1)
	w.handoffActive.Add(1)
	go func() {
		defer w.handoffActive.Add(-1)
		w.runHandoff(old, next)
	}()
}

// runHandoff computes and sends this worker's share of the reassigned
// state: every held cache entry and session op log whose new replica
// set contains nodes the old one did not. Failures get one retry round;
// what still fails is counted and abandoned (the read fallback plus
// future peer fills and session rebuilds cover the gap).
func (w *Worker) runHandoff(old, next *TopologyView) {
	r := w.replicaCount()
	var pending []handoffPush
	for _, key := range w.svc.CacheKeys() {
		hash := service.KeyRoutingHash(key)
		for _, peer := range w.movedOwners(old, next, hash, r) {
			pending = append(pending, handoffPush{peer: peer, key: key})
		}
	}
	for _, lg := range w.sessLogs.all() {
		targets := w.movedOwners(old, next, lg.BaseHash, r)
		if len(targets) == 0 {
			continue
		}
		rec := w.exportFromLog(lg)
		if rec == nil {
			continue
		}
		for _, peer := range targets {
			pending = append(pending, handoffPush{peer: peer, rec: &sessionExport{baseHash: lg.BaseHash, rec: rec}})
		}
	}

	var interval time.Duration
	if w.cfg.HandoffRate > 0 {
		interval = time.Duration(float64(time.Second) / w.cfg.HandoffRate)
	}
	retry := w.streamHandoff(pending, interval)
	retry = w.streamHandoff(retry, interval)
	w.handoffErrors.Add(int64(len(retry)))
}

// movedOwners returns the members of hash's new replica set that were
// not in its old one — the nodes owed a copy — provided this worker was
// an old owner (otherwise someone else holds the authoritative copy and
// will stream it; pushing from every holder would square the traffic).
func (w *Worker) movedOwners(old, next *TopologyView, hash string, replicas int) []string {
	wasOwner := false
	oldSet := map[string]bool{}
	for _, n := range old.Ring.Replicas(hash, replicas) {
		oldSet[n] = true
		if n == w.cfg.Self {
			wasOwner = true
		}
	}
	if !wasOwner {
		return nil
	}
	var out []string
	for _, n := range next.Ring.Replicas(hash, replicas) {
		if !oldSet[n] && n != w.cfg.Self {
			out = append(out, n)
		}
	}
	return out
}

// streamHandoff sends each pending push, pacing by interval, returning
// the pushes that failed (the caller's retry round).
func (w *Worker) streamHandoff(pending []handoffPush, interval time.Duration) []handoffPush {
	var failed []handoffPush
	for i, p := range pending {
		if interval > 0 && i > 0 {
			time.Sleep(interval)
		}
		var err error
		if p.rec != nil {
			err = w.pushSessionExport(p.peer, p.rec.rec)
			if err == nil {
				w.handoffSessions.Add(1)
			}
		} else {
			err = w.pushHandoffEntry(p.peer, p.key)
		}
		if err != nil {
			failed = append(failed, p)
		}
	}
	return failed
}

// pushHandoffEntry sends one cache entry to one new owner over the
// peer-fill wire (idempotent PUT).
func (w *Worker) pushHandoffEntry(peer, key string) error {
	data, ok := w.svc.CachePeek(key)
	if !ok {
		return nil // evicted since enumeration; nothing to move
	}
	resp, err := w.doEpochRequest(peer, func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPut, peer+"/internal/cache?key="+url.QueryEscape(key), bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	})
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("handoff push %s to %s: status %d", key, peer, resp.StatusCode)
	}
	w.handoffEntries.Add(1)
	w.handoffBytes.Add(int64(len(data)))
	return nil
}

// exportFromLog builds a migration record from a replicated op log. The
// log is the source of truth (the session may or may not be live here);
// its version is by construction the number of applied delta bodies.
func (w *Worker) exportFromLog(lg *sessionLog) *session.ExportRecord {
	if lg == nil || len(lg.Create) == 0 {
		return nil
	}
	rec := &session.ExportRecord{
		SessionID: lg.ID,
		BaseHash:  lg.BaseHash,
		Version:   int64(len(lg.Deltas)),
		Create:    append(json.RawMessage(nil), lg.Create...),
		Deltas:    make([]json.RawMessage, len(lg.Deltas)),
	}
	for i, d := range lg.Deltas {
		rec.Deltas[i] = append(json.RawMessage(nil), d...)
	}
	return rec
}

// pushSessionExport delivers one session's export record to peer. A
// non-stale 409 (the session is already live there) is success: the
// state this push exists to preserve is already preserved.
func (w *Worker) pushSessionExport(peer string, rec *session.ExportRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	resp, err := w.doEpochRequest(peer, func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPost, peer+"/internal/session/import", bytes.NewReader(payload))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	})
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent, http.StatusOK, http.StatusConflict:
		return nil
	default:
		return fmt.Errorf("session export %s to %s: status %d", rec.SessionID, peer, resp.StatusCode)
	}
}

// onSessionEvict runs (via the store's evict hook) when LRU pressure
// drops a live session: its op log is re-pushed to the hash's current
// replica set so the session stays rebuildable at the same id even if
// a reshard moved it since creation. Asynchronous — eviction happens
// on a client request's critical path.
func (w *Worker) onSessionEvict(id string) {
	if w.topo == nil {
		return
	}
	lg := w.sessLogs.get(id)
	if lg == nil || lg.BaseHash == "" {
		return
	}
	rec := w.exportFromLog(lg)
	if rec == nil {
		return
	}
	view := w.topo.View()
	go func() {
		for _, peer := range view.Ring.Replicas(lg.BaseHash, w.replicaCount()) {
			if peer == w.cfg.Self {
				continue
			}
			if err := w.pushSessionExport(peer, rec); err != nil {
				w.handoffErrors.Add(1)
				continue
			}
			w.handoffSessions.Add(1)
		}
	}()
}

// handleSessionImport is the migration wire: a peer delivers a full
// session export record. The record is validated structurally (a
// truncated or duplicated op log fails the version arithmetic with a
// 400 — never a panic, never a 5xx), stored as this worker's replicated
// log, and eagerly replayed so the session is live before its first
// client request arrives. An id already live answers the replay's 409,
// which the sender treats as success.
func (w *Worker) handleSessionImport(rw http.ResponseWriter, r *http.Request) {
	if w.topo == nil {
		w.writeError(rw, http.StatusNotFound, "not clustered")
		return
	}
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
		w.importFailures.Add(1)
		w.writeError(rw, http.StatusBadRequest, fmt.Sprintf("decoding import: %v", err))
		return
	}
	if err := rec.Validate(); err != nil {
		w.importFailures.Add(1)
		w.writeError(rw, importStatus(err), err.Error())
		return
	}
	// Record the log first: even if replay fails (e.g. id already live),
	// this worker can now rebuild or re-migrate the session later.
	w.sessLogs.upsertCreate(rec.SessionID, rec.BaseHash, rec.Create)
	for _, d := range rec.Deltas {
		w.sessLogs.appendDelta(rec.SessionID, d)
	}
	if err := w.svc.ImportSession(&rec); err != nil {
		status := importStatus(err)
		if status == http.StatusConflict {
			// Already live: idempotent re-delivery, nothing to do.
			rw.WriteHeader(http.StatusConflict)
			return
		}
		w.importFailures.Add(1)
		w.writeError(rw, status, err.Error())
		return
	}
	w.sessionImports.Add(1)
	rw.WriteHeader(http.StatusNoContent)
}

// importStatus lowers an import error to its HTTP status. Session-layer
// ClientErrors and service httpErrors keep theirs; anything else — a
// replay decode failure deep in a malformed record — is the sender's
// fault, 400. An import never 5xxes.
func importStatus(err error) int {
	var ce *session.ClientError
	if errors.As(err, &ce) {
		return ce.Status
	}
	if s := service.ErrorStatus(err); s < http.StatusInternalServerError {
		return s
	}
	return http.StatusBadRequest
}
