package cluster

// Cache handoff and session migration: what makes a topology change
// boring for clients. When a worker adopts a new view it compares the
// old and new replica sets of everything it holds — cache entries by
// their canonical routing hash, session op logs by their base hash —
// and streams whatever gained a new owner to that owner: cache entries
// in the canonical-entry wire format the peer-fill path uses (PUT
// /internal/cache), sessions as their full op log over the session-log
// wire replication uses (POST /internal/session/log). The new owner's
// session store holds the log as a dormant session and replays it on
// the session's first request, the path failover already takes; a
// former owner still holding the session live retires that copy when
// the newer log arrives. The stream gets one retry round over its
// failures (resumable: a push that missed is re-attempted before the
// round is declared done), and runs under the regcoal_handoff_* counter
// family. While it streams, the old view stays installed as a read
// fallback (Worker.prev) for handoffWindow, so a request that reaches
// the new owner before its entry does falls back to the old owner
// instead of re-solving — no cold cache.

import (
	"time"

	"regcoal/internal/service"
	"regcoal/internal/session"
)

// handoffWindow is how long after adopting a new topology the old view
// remains a read fallback: a miss on the new owners retries the old ones
// while entries are still streaming.
const handoffWindow = 5 * time.Second

// handoffPush is one pending unit of the stream: a cache entry key or a
// session's full op log, destined for one new owner.
type handoffPush struct {
	peer string
	key  string                // cache entry key, when a cache push
	rec  *session.ExportRecord // full op log, when a session push
}

// startHandoff installs the pre-change view as the read fallback and
// streams reassigned state in the background. Called with the old and
// freshly installed views under no locks.
func (w *Worker) startHandoff(old, next *TopologyView) {
	w.prev.Store(old)
	time.AfterFunc(handoffWindow, func() {
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
	var pending []handoffPush
	for _, key := range w.svc.CacheKeys() {
		hash := service.KeyRoutingHash(key)
		for _, peer := range w.movedOwners(old, next, hash, w.cfg.Replicas) {
			pending = append(pending, handoffPush{peer: peer, key: key})
		}
	}
	for _, rec := range w.svc.Sessions().Logs() {
		for _, peer := range w.movedOwners(old, next, rec.BaseHash, w.cfg.Replicas) {
			pending = append(pending, handoffPush{peer: peer, rec: rec})
		}
	}
	retry := w.streamHandoff(pending)
	retry = w.streamHandoff(retry)
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

// streamHandoff sends each pending push, returning the pushes that
// failed (the caller's retry round).
func (w *Worker) streamHandoff(pending []handoffPush) []handoffPush {
	var failed []handoffPush
	for _, p := range pending {
		var err error
		if p.rec != nil {
			if err = w.shipLog(p.peer, p.rec); err == nil {
				w.handoffSessions.Add(1)
			}
		} else if data, ok := w.svc.CachePeek(p.key); ok { // else evicted since enumeration
			if err = w.putEntry(p.peer, p.key, data, nil); err == nil {
				w.handoffEntries.Add(1)
				w.handoffBytes.Add(int64(len(data)))
			}
		}
		if err != nil {
			failed = append(failed, p)
		}
	}
	return failed
}
