package cluster

// Worker side of the epoch protocol. Every internal RPC a worker sends
// (peer fill, cache push, session log, handoff stream) is stamped with
// the sender's topology epoch; every internal RPC a worker receives is
// checked against its own. A mismatch in either direction is a
// structured 409 carrying the receiver's full view, and the sender
// reconciles from the rejection alone — adopting the receiver's view
// when the receiver is ahead, pushing its own view to the receiver when
// the receiver is behind — then retries the RPC once. Absent or
// malformed epoch headers are accepted (epoch-agnostic senders: older
// binaries, manual curl, the router's solve forwards).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// stampEpoch sets the epoch header from the worker's current view.
func (w *Worker) stampEpoch(req *http.Request) {
	req.Header.Set(EpochHeader, fmt.Sprintf("%d", w.topo.Epoch()))
}

// checkEpoch validates an inbound internal RPC's epoch against the
// worker's view. On a mismatch it answers the structured 409 (carrying
// this worker's full view, so the sender can reconcile) and returns
// false; the handler must stop. Header-less requests pass.
func (w *Worker) checkEpoch(rw http.ResponseWriter, r *http.Request) bool {
	got, ok := parseEpochHeader(r)
	if !ok {
		return true
	}
	view := w.topo.View()
	if got == view.Epoch {
		return true
	}
	w.epochRejects.Add(1)
	writeStaleEpoch(rw, got, view)
	return false
}

// doEpochRequest performs one internal RPC with the epoch protocol:
// build constructs a fresh request (it runs again on retry — bodies are
// single-use), the epoch header is stamped, and a stale-epoch 409 is
// reconciled and retried exactly once. Any other response — including a
// 409 that is not a stale-epoch body, such as the session log's gap —
// is returned to the caller with its body intact.
func (w *Worker) doEpochRequest(peer string, build func() (*http.Request, error)) (*http.Response, error) {
	for attempt := 0; ; attempt++ {
		req, err := build()
		if err != nil {
			return nil, err
		}
		w.stampEpoch(req)
		resp, err := w.client.Do(req)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusConflict || attempt > 0 {
			return resp, nil
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		var se staleEpoch
		if json.Unmarshal(body, &se) != nil || se.Topology.Epoch == 0 {
			// A 409 that is not a stale-epoch rejection: hand it back
			// with the body restored for the caller to read.
			resp.Body = io.NopCloser(bytes.NewReader(body))
			return resp, nil
		}
		w.reconcileEpoch(peer, &se)
	}
}

// reconcileEpoch resolves a stale-epoch rejection from peer: if the
// peer's view is newer, adopt it (which also starts this worker's own
// handoff for the ranges it lost); if this worker's view is newer, push
// it to the peer so the next attempt lands on a current receiver.
func (w *Worker) reconcileEpoch(peer string, se *staleEpoch) {
	view := w.topo.View()
	if se.Topology.Epoch > view.Epoch {
		w.adoptTopology(se.Topology.Epoch, se.Topology.Nodes)
		return
	}
	if se.Topology.Epoch < view.Epoch {
		w.pushTopology(peer, view)
	}
}

// pushTopology offers this worker's view to a behind peer (best-effort:
// the peer's own 409 exchanges will heal it eventually regardless).
func (w *Worker) pushTopology(peer string, view *TopologyView) {
	payload, err := json.Marshal(view.Wire())
	if err != nil {
		return
	}
	req, err := http.NewRequest(http.MethodPost, peer+"/internal/topology", bytes.NewReader(payload))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	w.stampEpoch(req)
	resp, err := w.client.Do(req)
	if err != nil {
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// adoptTopology installs a broadcast view if its epoch is strictly
// higher, and on a real change starts the handoff: the old view becomes
// the bounded read fallback while this worker streams its reassigned
// cache entries and sessions to their new owners.
func (w *Worker) adoptTopology(epoch uint64, nodes []string) {
	old, installed, changed := w.topo.Adopt(epoch, nodes)
	if !changed {
		return
	}
	w.epochAdoptions.Add(1)
	w.startHandoff(old, installed)
}

// handleInternalTopology is the worker's membership wire: GET returns
// the current view; POST is the broadcast/reconcile path installing a
// full {epoch, nodes} view. Equal epochs are an idempotent no-op; a
// lower epoch gets the structured 409 so the stale broadcaster heals.
func (w *Worker) handleInternalTopology(rw http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		w.writeJSON(rw, http.StatusOK, w.topo.View().Wire())
	case http.MethodPost:
		var wire TopologyWire
		dec := json.NewDecoder(http.MaxBytesReader(rw, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&wire); err != nil {
			w.writeError(rw, http.StatusBadRequest, fmt.Sprintf("decoding topology: %v", err))
			return
		}
		if wire.Epoch == 0 || len(wire.Nodes) == 0 {
			w.writeError(rw, http.StatusBadRequest, "topology requires epoch >= 1 and a non-empty node set")
			return
		}
		view := w.topo.View()
		if wire.Epoch < view.Epoch {
			w.epochRejects.Add(1)
			writeStaleEpoch(rw, wire.Epoch, view)
			return
		}
		w.adoptTopology(wire.Epoch, wire.Nodes)
		rw.WriteHeader(http.StatusNoContent)
	default:
		w.writeError(rw, http.StatusMethodNotAllowed, "GET or POST required")
	}
}

// HandoffWait blocks until no handoff is streaming (or ctx expires) —
// the drain path calls it after announcing a leave, so a departing
// worker finishes pushing its reassigned state before shutting down.
func (w *Worker) HandoffWait(ctx context.Context) error {
	tick := time.NewTicker(25 * time.Millisecond)
	defer tick.Stop()
	for {
		if w.handoffActive.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}
