package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"sync/atomic"
	"time"

	"regcoal/internal/obs"
	"regcoal/internal/service"
)

// setTraceHeader stamps a peer cache request with the originating
// request's trace ID, so one ID threads router → worker → peer hops.
func setTraceHeader(req *http.Request, tr *obs.Trace) {
	if tr != nil && !tr.ID.IsZero() {
		req.Header.Set(service.TraceIDHeader, tr.ID.String())
	}
}

// Worker is one shard of the serving tier: a service.Server whose request
// pipeline it joins as the service.Tier, plus the cluster's internal
// wires. Its /v1/* endpoints are the service's own handlers — same decode
// rules, same error messages, same deterministic bodies — with these
// additions at the tier's hook points:
//
//   - Tiered cache: on a local (L1) miss whose canonical hash is owned by
//     a different shard, the worker first asks the owner's cache over
//     GET /internal/cache (L2) and seeds its own cache with the entry,
//     turning a cluster-wide duplicate into a hit instead of a re-solve.
//     Entries travel in canonical vertex space (service wire format), so
//     a relabeled duplicate filled from a peer still renders in its own
//     numbering.
//   - Push-on-compute: an entry computed on any shard is pushed to every
//     member of its hash's replica set (PUT /internal/cache), so each of
//     the R owners accumulates the cluster's working set no matter where
//     traffic lands — read-your-writes holds on any replica.
//   - Session replication: the record each successful /v1/coalesce/delta
//     op adds to its session's op log is pushed to the replica set of
//     the session's base hash, so a secondary can rebuild a primary's
//     session by deterministic replay (see replication.go).
type Worker struct {
	svc    *service.Server
	cfg    WorkerConfig
	topo   *Topology
	client *http.Client
	mux    *http.ServeMux

	// prev holds the pre-reshard view during the bounded handoff
	// window: reads that miss the new owners fall back to the old ones,
	// so no request observes a cold cache while entries stream over.
	prev atomic.Pointer[TopologyView]

	peerFills    atomic.Int64 // local misses answered from a peer's cache
	peerMisses   atomic.Int64 // peer lookups that found nothing
	peerErrors   atomic.Int64 // peer lookups/pushes that failed
	peerPushes   atomic.Int64 // computed entries pushed to replica owners
	replPushes   atomic.Int64 // session log records replicated to peers
	replFailures atomic.Int64 // ...that failed
	logGaps      atomic.Int64 // received session log records that did not extend a log contiguously

	epochRejects    atomic.Int64 // internal RPCs rejected 409 for a stale epoch
	epochAdoptions  atomic.Int64 // topology views adopted (broadcast or 409 exchange)
	handoffEntries  atomic.Int64 // cache entries streamed to new owners
	handoffBytes    atomic.Int64 // ...their serialized size
	handoffSessions atomic.Int64 // session logs shipped to new owners
	handoffErrors   atomic.Int64 // handoff pushes that failed after retry
	handoffRounds   atomic.Int64 // topology changes that ran a handoff
	handoffActive   atomic.Int64 // handoffs currently streaming (gauge)
}

// WorkerConfig parameterizes a Worker. Self and Peers use the same base
// URLs the router's config does.
type WorkerConfig struct {
	// Self is this worker's base URL as it appears in Peers (and in the
	// router's worker list). Required.
	Self string
	// Peers lists every worker's base URL, including Self.
	Peers []string
	// Client performs peer cache traffic (default 2s timeout).
	Client *http.Client
	// Replicas is the replica-set size R each hash range is owned by
	// (default DefaultReplicas, capped by the worker count). Must match
	// the router's. R = 1 is the pre-replication single-owner behavior.
	Replicas int
}

// NewWorker makes svc a cluster shard, installing the worker as its
// tier. Self must be one of Peers: without it the worker could neither
// find its own ranges nor replicate. A one-node ring (Self alone in
// Peers) consults only itself.
func NewWorker(svc *service.Server, cfg WorkerConfig) (*Worker, error) {
	if cfg.Self == "" || !slices.Contains(cfg.Peers, cfg.Self) {
		return nil, fmt.Errorf("cluster: self %q not in peer list %v", cfg.Self, cfg.Peers)
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = DefaultReplicas
	}
	w := &Worker{
		svc:    svc,
		cfg:    cfg,
		topo:   NewTopology(cfg.Peers),
		client: cfg.Client,
		mux:    http.NewServeMux(),
	}
	if w.client == nil {
		w.client = &http.Client{Timeout: 2 * time.Second}
	}
	svc.SetTier(w)
	w.declareMetrics(svc.Registry())
	w.mux.HandleFunc("/internal/cache", w.handleInternalCache)
	w.mux.HandleFunc("/internal/session/log", w.handleSessionLog)
	w.mux.HandleFunc("/internal/topology", w.handleInternalTopology)
	// The /v1/* endpoints, /metrics and /stats (which render the families
	// declared above), liveness, readiness, and anything else stay the
	// service's.
	w.mux.Handle("/", svc.Handler())
	return w, nil
}

// declareMetrics declares the shard-level families into the service's
// registry, so the service's /metrics and /stats carry them.
func (w *Worker) declareMetrics(r *obs.Registry) {
	r.Counter("regcoal_cluster_peer_fills_total", "Local misses answered from a peer shard's cache.", w.peerFills.Load)
	r.Counter("regcoal_cluster_peer_misses_total", "Peer cache lookups that found nothing.", w.peerMisses.Load)
	r.Counter("regcoal_cluster_peer_pushes_total", "Computed entries pushed to the other owners in their hash's replica set.", w.peerPushes.Load)
	r.Counter("regcoal_cluster_peer_errors_total", "Failed peer cache lookups or pushes.", w.peerErrors.Load)
	r.Counter("regcoal_session_repl_pushes_total", "Session op-log records replicated to peers.", w.replPushes.Load)
	r.Counter("regcoal_session_repl_failures_total", "Session op-log replication pushes that failed.", w.replFailures.Load)
	r.Counter("regcoal_session_log_gaps_total", "Session op-log records received that did not extend a log contiguously.", w.logGaps.Load)
	r.Counter("regcoal_epoch_rejects_total", "Internal RPCs rejected 409 for a stale topology epoch.", w.epochRejects.Load)
	r.Counter("regcoal_epoch_adoptions_total", "Topology views adopted from a broadcast or 409 exchange.", w.epochAdoptions.Load)
	r.Counter("regcoal_handoff_entries_total", "Cache entries streamed to new owners during resharding.", w.handoffEntries.Load)
	r.Counter("regcoal_handoff_bytes_total", "Serialized bytes of cache entries streamed during resharding.", w.handoffBytes.Load)
	r.Counter("regcoal_handoff_sessions_total", "Session op logs shipped to new owners during resharding.", w.handoffSessions.Load)
	r.Counter("regcoal_handoff_errors_total", "Handoff pushes that failed after the retry round.", w.handoffErrors.Load)
	r.Counter("regcoal_handoff_rounds_total", "Topology changes that ran a handoff stream.", w.handoffRounds.Load)
	r.Gauge("regcoal_handoff_active", "Handoff streams currently running.", w.handoffActive.Load)
	r.Gauge("regcoal_session_logs", "Session op logs held, live or dormant, for rebuild or migration.", func() int64 { return int64(len(w.svc.Sessions().Logs())) })
	r.Gauge("regcoal_topology_epoch", "Current cluster membership epoch.", func() int64 { return int64(w.topo.View().Epoch) })
	r.GaugeVec("regcoal_session_replica_lag", "Sessions held here whose last op-log ship to the peer failed.", "peer", w.replicaLag)
}

// ServeHTTP implements http.Handler.
func (w *Worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) { w.mux.ServeHTTP(rw, r) }

// Fill implements service.Tier: it consults the replica owners' caches
// for a key missing locally, in replica order, seeding the local cache
// from the first hit. Returns whether the local cache was seeded. During
// a handoff window the previous view's owners are consulted after the
// current ones: an entry whose range just moved may not have streamed to
// its new owner yet, but the old owner still holds it — reads fall back
// old-owner→new-owner, so a reshard never exposes a cold cache. The
// request's trace ID (when tr is non-nil) rides each lookup so the hops
// are attributable to their cluster request.
func (w *Worker) Fill(p *service.Prepared, tr *obs.Trace) bool {
	tried := map[string]bool{w.cfg.Self: true}
	owners := w.topo.View().Ring.Replicas(p.Hash(), w.cfg.Replicas)
	if prev := w.prev.Load(); prev != nil {
		owners = append(append([]string(nil), owners...), prev.Ring.Replicas(p.Hash(), w.cfg.Replicas)...)
	}
	for _, owner := range owners {
		if tried[owner] {
			continue
		}
		tried[owner] = true
		if w.peerFillFrom(owner, p, tr) {
			return true
		}
	}
	return false
}

// peerFillFrom asks one replica owner for the entry.
func (w *Worker) peerFillFrom(owner string, p *service.Prepared, tr *obs.Trace) bool {
	resp, err := w.doEpochRequest(owner, func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodGet, owner+"/internal/cache?key="+url.QueryEscape(p.Key()), nil)
		if err == nil {
			setTraceHeader(req, tr)
		}
		return req, err
	})
	if err != nil {
		w.peerErrors.Add(1)
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		w.peerMisses.Add(1)
		io.Copy(io.Discard, resp.Body)
		return false
	}
	if resp.StatusCode != http.StatusOK {
		w.peerErrors.Add(1)
		io.Copy(io.Discard, resp.Body)
		return false
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, service.MaxBodyBytes))
	if err != nil {
		w.peerErrors.Add(1)
		return false
	}
	if err := w.svc.CacheSeed(p.Key(), data); err != nil {
		w.peerErrors.Add(1)
		return false
	}
	w.peerFills.Add(1)
	return true
}

// Computed implements service.Tier: it sends a freshly computed entry
// to every member of its hash's replica set, so each of the R owners
// accumulates the cluster working set no matter which worker the traffic
// hit — and a later read answered by any replica sees the write
// (read-your-writes). Synchronous and best-effort: a failed push costs a
// future peer-fill miss, nothing else.
func (w *Worker) Computed(p *service.Prepared, tr *obs.Trace) {
	data, ok := w.svc.CachePeek(p.Key())
	if !ok {
		return
	}
	for _, owner := range w.topo.View().Ring.Replicas(p.Hash(), w.cfg.Replicas) {
		if owner == w.cfg.Self {
			continue
		}
		if err := w.putEntry(owner, p.Key(), data, tr); err != nil {
			w.peerErrors.Add(1)
			continue
		}
		w.peerPushes.Add(1)
	}
}

// putEntry sends one serialized cache entry to peer over the peer-fill
// wire (idempotent PUT /internal/cache).
func (w *Worker) putEntry(peer, key string, data []byte, tr *obs.Trace) error {
	status, err := w.send(peer, http.MethodPut, "/internal/cache?key="+url.QueryEscape(key), data, tr)
	if err == nil && status != http.StatusNoContent && status != http.StatusOK {
		err = fmt.Errorf("cache push %s to %s: status %d", key, peer, status)
	}
	return err
}

// send performs one internal RPC with a JSON body under the epoch
// protocol, stamped with tr's trace ID when tr is non-nil, and returns
// the response status with its body drained.
func (w *Worker) send(peer, method, path string, body []byte, tr *obs.Trace) (int, error) {
	resp, err := w.doEpochRequest(peer, func() (*http.Request, error) {
		req, err := http.NewRequest(method, peer+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		setTraceHeader(req, tr)
		return req, nil
	})
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// handleInternalCache is the peer-fill wire: GET returns the serialized
// canonical-space entry for ?key (404 when absent), PUT installs one.
func (w *Worker) handleInternalCache(rw http.ResponseWriter, r *http.Request) {
	if !w.checkEpoch(rw, r) {
		return
	}
	key := r.URL.Query().Get("key")
	if key == "" {
		w.writeError(rw, http.StatusBadRequest, "missing key")
		return
	}
	switch r.Method {
	case http.MethodGet:
		data, ok := w.svc.CachePeek(key)
		if !ok {
			w.writeError(rw, http.StatusNotFound, "not cached")
			return
		}
		w.writeRaw(rw, http.StatusOK, data)
	case http.MethodPut:
		data, err := io.ReadAll(io.LimitReader(r.Body, service.MaxBodyBytes))
		if err != nil {
			w.writeError(rw, http.StatusBadRequest, "reading body")
			return
		}
		if err := w.svc.CacheSeed(key, data); err != nil {
			w.writeError(rw, http.StatusBadRequest, err.Error())
			return
		}
		rw.WriteHeader(http.StatusNoContent)
	default:
		w.writeError(rw, http.StatusMethodNotAllowed, "GET or PUT required")
	}
}

// The write helpers serve the worker's own routes: marshal once, write
// exact bytes, nothing non-deterministic in a body.

func (w *Worker) writeJSON(rw http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		w.svc.Metrics().Errors.Add(1)
		http.Error(rw, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.writeRaw(rw, status, data)
}

func (w *Worker) writeRaw(rw http.ResponseWriter, status int, data []byte) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	rw.Write(data)
}

func (w *Worker) writeError(rw http.ResponseWriter, status int, msg string) {
	w.writeJSON(rw, status, service.ErrorResponse{Error: msg})
}
