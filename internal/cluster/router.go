// Package cluster is the distributed serving tier over internal/service:
// a rendezvous-hash router shards requests by canonical graph hash across
// worker nodes, each worker joins its service's request pipeline as the
// service.Tier (a tiered local LRU + peer fill cache, push-on-compute,
// session replication), and a batch endpoint fans one decode pass out
// per shard. The tier's contract is that a multi-node cluster answers
// every request with bytes identical to a single-process service:
// routing, caching, and fan-out may change where and whether an instance
// is computed, never what the client reads.
package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"regcoal/internal/obs"
	"regcoal/internal/service"
	"regcoal/internal/singleflight"
)

// Router is the cluster's front door. It owns no solver: it reads each
// request with the worker's own decoders to compute the canonical
// routing hash, forwards the original body verbatim to the owning
// worker, and copies the worker's response verbatim back. A solve or
// create body also carries the canonical form the router computed, on
// the service.CanonHeader request header, so the worker verifies it
// instead of canonicalizing again. Requests that cannot be canonicalized
// (parse errors, missing register counts, oversize graphs) go to the
// deterministic fallback shard — ring owner of the empty key — whose
// worker reproduces the exact single-node error body.
//
// Failover walks the key's ring sequence — the replica set first, then
// the remaining nodes by descending score — under a per-request retry
// budget: attempts that fail in transport or answer 5xx retry the next
// distinct node after a capped, jittered exponential backoff, and (for
// idempotent endpoints) a hedged second attempt races the next replica
// once the first has been in flight longer than HedgeAfter. A worker
// that is unreachable or fails its readiness probe (draining) is
// skipped.
type Router struct {
	cfg    RouterConfig
	topo   *Topology
	client *http.Client
	mux    *http.ServeMux
	reg    obs.Registry // the families behind /metrics and /stats

	proxied         atomic.Int64
	batchRequests   atomic.Int64
	batchItems      atomic.Int64
	fallback        atomic.Int64
	failovers       atomic.Int64
	retries         atomic.Int64
	hedges          atomic.Int64
	readyProbes     atomic.Int64
	noWorker        atomic.Int64
	topologyUpdates atomic.Int64
	broadcastFails  atomic.Int64

	shards obs.Labeled[shardStats] // grown as nodes answer traffic

	readyMu sync.Mutex
	ready   map[string]readyState
	probes  singleflight.Group // one readiness probe in flight per node
}

// shardStats is one worker's view from the router: how much traffic it
// answered, how it came to answer (owner, failover target, fallback
// shard), and the forward latency distribution. Entries are created on a
// node's first answer and never removed (a departed node's history stays
// readable).
type shardStats struct {
	forwarded atomic.Int64 // requests this worker answered
	failovers atomic.Int64 // ...while standing in for an unready owner
	fallback  atomic.Int64 // ...for unroutable (fallback-keyed) requests
	lat       obs.Histogram
}

type readyState struct {
	ok bool
	at time.Time
}

// RouterConfig parameterizes a Router. The limits must match the
// workers' service config for the router's routing decisions to agree
// with worker-side validation.
type RouterConfig struct {
	// Workers lists the worker base URLs (http://host:port).
	Workers []string
	// MaxVertices mirrors the workers' service MaxVertices (default
	// service.DefaultMaxVertices): oversize graphs route to the fallback
	// shard for the worker's own 400.
	MaxVertices int
	// MaxBatch mirrors the workers' service MaxBatch (default
	// service.DefaultMaxBatch).
	MaxBatch int
	// Client performs worker traffic (default 60s timeout).
	Client *http.Client
	// ReadyTTL caches worker readiness probes (default 500ms).
	ReadyTTL time.Duration
	// Replicas is the replica-set size R each hash range is owned by
	// (default 2, capped by the worker count). Must match the workers'.
	Replicas int
	// HedgeAfter launches a hedged attempt at the next replica once the
	// current attempt has been in flight this long without answering.
	// Zero disables hedging (the in-process/test default: a hedge
	// duplicates compute on a second shard, which perturbs cluster-wide
	// solve counts that several differential tests pin down).
	HedgeAfter time.Duration
}

// retryBudget caps total attempts per request — the first try plus
// retries plus any hedge; backoffBase and backoffCap bound the jittered
// exponential backoff between retry attempts.
const (
	retryBudget = 3
	backoffBase = 10 * time.Millisecond
	backoffCap  = 200 * time.Millisecond
)

func (c *RouterConfig) fillDefaults() {
	if c.MaxVertices <= 0 {
		c.MaxVertices = service.DefaultMaxVertices
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = service.DefaultMaxBatch
	}
	if c.ReadyTTL <= 0 {
		c.ReadyTTL = 500 * time.Millisecond
	}
	if c.Replicas <= 0 {
		c.Replicas = DefaultReplicas
	}
}

// DefaultReplicas is the replica-set size used when a config leaves it
// zero.
const DefaultReplicas = 2

// NewRouter builds a router over the worker set.
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg.fillDefaults()
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one worker")
	}
	r := &Router{
		cfg:    cfg,
		topo:   NewTopology(cfg.Workers),
		client: cfg.Client,
		mux:    http.NewServeMux(),
		ready:  make(map[string]readyState),
	}
	r.declareMetrics()
	if r.client == nil {
		r.client = &http.Client{Timeout: 60 * time.Second}
	}
	solve := r.handleProxy(service.RouteKey, true)
	r.mux.HandleFunc("/v1/coalesce", solve)
	r.mux.HandleFunc("/v1/allocate", solve)
	r.mux.HandleFunc("/v1/spill", solve)
	// No hedging for the session endpoint: a delta batch is not
	// idempotent, and a hedged duplicate landing on a replica could
	// rebuild and apply the session divergently. Retries stay on — a
	// transport failure means the primary never answered, and the next
	// replica rebuilds from the replicated log; a duplicate of an
	// already-applied versioned batch is caught by the optimistic-
	// concurrency guard (409).
	r.mux.HandleFunc("/v1/coalesce/delta", r.handleProxy(service.DeltaRouteKey, false))
	r.mux.HandleFunc("/v1/batch", r.handleBatch)
	r.mux.HandleFunc("/internal/topology", r.handleTopology)
	r.mux.HandleFunc("/healthz", r.handleLivez)
	r.mux.HandleFunc("/livez", r.handleLivez)
	r.mux.HandleFunc("/readyz", r.handleLivez)
	r.mux.HandleFunc("/metrics", r.handleMetrics)
	r.mux.HandleFunc("/stats", r.handleStats)
	return r, nil
}

// ServeHTTP implements http.Handler.
func (r *Router) ServeHTTP(rw http.ResponseWriter, req *http.Request) { r.mux.ServeHTTP(rw, req) }

// Ring exposes the current view's ring (tests). The pointer is a
// snapshot: a concurrent topology change installs a new ring rather than
// mutating this one.
func (r *Router) Ring() *Ring { return r.topo.View().Ring }

// Topology exposes the router's membership object.
func (r *Router) Topology() *Topology { return r.topo }

// handleTopology is the admin surface of live membership. GET returns
// the current {epoch, nodes} view. POST applies an add/remove/full-set
// update CAS-guarded by from_epoch, broadcasts the new view to the union
// of the old and new node sets (so a leaving node learns it left and
// starts its handoff), invalidates every cached readiness probe (a
// rejoined worker must not stay masked as unready for a stale TTL
// window), and answers the new view. A CAS miss answers the structured
// stale-epoch 409.
func (r *Router) handleTopology(rw http.ResponseWriter, req *http.Request) {
	switch req.Method {
	case http.MethodGet:
		r.writeJSON(rw, http.StatusOK, r.topo.View().Wire())
	case http.MethodPost:
		var upd topologyUpdate
		dec := json.NewDecoder(http.MaxBytesReader(rw, req.Body, service.MaxBodyBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&upd); err != nil {
			r.writeError(rw, http.StatusBadRequest, fmt.Sprintf("decoding topology update: %v", err))
			return
		}
		old := r.topo.View()
		from := upd.FromEpoch
		if from == 0 {
			from = old.Epoch
		}
		nodes, err := upd.applyEdit(old.Nodes)
		if err != nil {
			r.writeError(rw, http.StatusBadRequest, err.Error())
			return
		}
		if len(nodes) == 0 {
			r.writeError(rw, http.StatusBadRequest, "topology update: node set would be empty")
			return
		}
		next, err := r.topo.CAS(from, nodes)
		if err != nil {
			writeStaleEpoch(rw, from, next)
			return
		}
		r.topologyUpdates.Add(1)
		r.invalidateReadiness()
		r.broadcastTopology(old, next)
		r.writeJSON(rw, http.StatusOK, next.Wire())
	default:
		r.writeError(rw, http.StatusMethodNotAllowed, "GET or POST required")
	}
}

// invalidateReadiness drops every cached readiness probe. Called on each
// epoch change: membership just moved, so a node marked unready under
// the old view (it was down, draining, or leaving) must be re-probed
// immediately rather than skipped for the remainder of its TTL window.
func (r *Router) invalidateReadiness() {
	r.readyMu.Lock()
	r.ready = make(map[string]readyState)
	r.readyMu.Unlock()
}

// broadcastTopology pushes the new view to the union of the old and new
// node sets, concurrently and best-effort: a node that misses the
// broadcast reconciles through the stale-epoch 409 exchange on its next
// internal RPC.
func (r *Router) broadcastTopology(old, next *TopologyView) {
	targets := make([]string, 0, len(old.Nodes)+len(next.Nodes))
	seen := make(map[string]bool, cap(targets))
	for _, n := range append(append([]string(nil), next.Nodes...), old.Nodes...) {
		if !seen[n] {
			seen[n] = true
			targets = append(targets, n)
		}
	}
	body, err := json.Marshal(next.Wire())
	if err != nil {
		r.broadcastFails.Add(int64(len(targets)))
		return
	}
	var wg sync.WaitGroup
	for _, node := range targets {
		wg.Add(1)
		go func(node string) {
			defer wg.Done()
			req, err := http.NewRequest(http.MethodPost, node+"/internal/topology", bytes.NewReader(body))
			if err != nil {
				r.broadcastFails.Add(1)
				return
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := r.client.Do(req)
			if err != nil {
				r.broadcastFails.Add(1)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode >= http.StatusInternalServerError {
				r.broadcastFails.Add(1)
			}
		}(node)
	}
	wg.Wait()
}

// handleProxy serves a proxied endpoint: read the body, key it with
// routeKey, pick the owner, forward verbatim (hedged when hedge is set).
// The solve endpoints key by the canonical hash of the graph; the
// session endpoint keys a create the same way (the base_hash the worker
// mints) and every other op by the base_hash it echoes, so a session
// stays on the shard that owns it. The key is "" for anything that must
// go to the fallback shard; the worker's decode of the verbatim body is
// what produces error responses, so they stay byte-identical to
// single-node.
func (r *Router) handleProxy(routeKey func(body []byte, maxVertices int) (key, form string), hedge bool) http.HandlerFunc {
	return func(rw http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			r.writeError(rw, http.StatusMethodNotAllowed, "POST required")
			return
		}
		r.proxied.Add(1)
		traceID := r.traceID(req)
		rw.Header().Set(service.TraceIDHeader, traceID)
		body, err := service.ReadBody(rw, req)
		if err != nil {
			r.writeError(rw, service.ErrorStatus(err), err.Error())
			return
		}
		key, form := routeKey(body, r.cfg.MaxVertices)
		if key == "" {
			r.fallback.Add(1)
		}
		r.forward(rw, req, key, form, body, traceID, hedge)
	}
}

// traceID adopts the client's X-Regcoal-Trace-Id when valid, otherwise
// mints a fresh one: the router is where a cluster request's identity is
// born, and every worker and peer-fill hop downstream carries it.
func (r *Router) traceID(req *http.Request) string {
	if id, ok := obs.ParseTraceID(req.Header.Get(service.TraceIDHeader)); ok {
		return id.String()
	}
	return obs.NewTraceID().String()
}

// forward sends body to key's replica set under the retry budget and
// copies the winning response verbatim, tagging the shard that answered
// in X-Regcoal-Shard. The client request's path, query (so ?trace=1
// reaches the worker), and trace opt-in headers ride along, and so does
// form, the key's CanonHeader value ("" sends none). hedge
// enables the hedged second attempt — callers disable it for
// non-idempotent bodies (session deltas), where a raced duplicate could
// apply twice.
func (r *Router) forward(rw http.ResponseWriter, req *http.Request, key, form string, body []byte, traceID string, hedge bool) {
	path := req.URL.Path
	if q := req.URL.RawQuery; q != "" {
		path += "?" + q
	}
	status, hdr, respBody, node, err := r.forwardTo(path, key, form, body, traceID, req, hedge)
	if err != nil {
		r.noWorker.Add(1)
		r.writeError(rw, http.StatusBadGateway, err.Error())
		return
	}
	for _, h := range []string{"X-Regcoal-Cache", "X-Regcoal-Tier", service.PhasesHeader, "Content-Type"} {
		if v := hdr.Get(h); v != "" {
			rw.Header().Set(h, v)
		}
	}
	rw.Header().Set("X-Regcoal-Shard", node)
	rw.WriteHeader(status)
	rw.Write(respBody)
}

// attemptResult is one forward attempt's outcome.
type attemptResult struct {
	status     int
	hdr        http.Header
	body       []byte
	node       string
	failedOver bool
	dur        time.Duration
	err        error
}

// attempt performs one forward to node and reports the outcome. A
// transport error marks the node unready so concurrent and subsequent
// requests skip it for a ReadyTTL window.
func (r *Router) attempt(node, path, form string, body []byte, traceID string, clientReq *http.Request, failedOver bool) attemptResult {
	res := attemptResult{node: node, failedOver: failedOver}
	freq, err := http.NewRequest(http.MethodPost, node+path, bytes.NewReader(body))
	if err != nil {
		res.err = err
		return res
	}
	freq.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		freq.Header.Set(service.TraceIDHeader, traceID)
	}
	if form != "" {
		freq.Header.Set(service.CanonHeader, form)
	}
	if clientReq != nil {
		for _, h := range []string{service.TraceHeader, service.FamilyHeader} {
			if v := clientReq.Header.Get(h); v != "" {
				freq.Header.Set(h, v)
			}
		}
	}
	start := time.Now()
	resp, err := r.client.Do(freq)
	if err != nil {
		r.markUnready(node)
		res.err = err
		return res
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		res.err = err
		return res
	}
	res.status = resp.StatusCode
	res.hdr = resp.Header
	res.body = data
	res.dur = time.Since(start)
	return res
}

// forwardTo answers one request through key's ring sequence — replica
// set first — under the retry budget. Attempts that fail in transport
// or answer 5xx retry the next distinct node (never the same node
// twice) after a capped, jittered exponential backoff; when hedge is
// set, a duplicate attempt races the next candidate once the current
// one has been in flight longer than HedgeAfter, and the first
// non-5xx answer wins. Unready nodes are skipped. Only when every
// candidate has failed does the client see a 5xx: the last 5xx body
// verbatim, or a 502 when no node could even be reached. The answering
// shard's counters and latency histogram record the attempt; traceID,
// the client's trace opt-in headers and form (the CanonHeader value, on
// every attempt) propagate to the worker. clientReq may be nil (batch
// sub-requests carry no per-item opt-ins, and no forms).
func (r *Router) forwardTo(path, key, form string, body []byte, traceID string, clientReq *http.Request, hedge bool) (status int, hdr http.Header, respBody []byte, node string, err error) {
	seq := r.topo.View().Ring.Sequence(key)
	results := make(chan attemptResult, len(seq)+1)
	next, launched, inFlight := 0, 0, 0
	launch := func() bool {
		for next < len(seq) {
			candidate := seq[next]
			failedOver := next > 0
			next++
			if !r.isReady(candidate) {
				continue
			}
			if failedOver {
				r.failovers.Add(1)
			}
			launched++
			inFlight++
			go func() {
				results <- r.attempt(candidate, path, form, body, traceID, clientReq, failedOver)
			}()
			return true
		}
		return false
	}
	launch()

	var hedgeC <-chan time.Time
	if hedge && r.cfg.HedgeAfter > 0 && inFlight > 0 {
		ht := time.NewTimer(r.cfg.HedgeAfter)
		defer ht.Stop()
		hedgeC = ht.C
	}
	var backoffT *time.Timer
	var backoffC <-chan time.Time
	defer func() {
		if backoffT != nil {
			backoffT.Stop()
		}
	}()
	var last attemptResult
	haveLast := false
	for inFlight > 0 || backoffC != nil {
		select {
		case res := <-results:
			inFlight--
			if res.err == nil && res.status < http.StatusInternalServerError {
				r.countShard(res.node, res.failedOver, key == "", res.dur)
				return res.status, res.hdr, res.body, res.node, nil
			}
			last, haveLast = res, true
			if launched < retryBudget && next < len(seq) && backoffC == nil {
				r.retries.Add(1)
				backoffT = time.NewTimer(r.backoff(launched))
				backoffC = backoffT.C
			}
		case <-backoffC:
			backoffC = nil
			launch()
		case <-hedgeC:
			hedgeC = nil
			if launched < retryBudget && launch() {
				r.hedges.Add(1)
			}
		}
	}
	if haveLast && last.err == nil {
		// Every candidate answered 5xx: relay the last body verbatim so
		// the client sees the worker's own error, not a router wrapper.
		r.countShard(last.node, last.failedOver, key == "", last.dur)
		return last.status, last.hdr, last.body, last.node, nil
	}
	if haveLast {
		return 0, nil, nil, "", fmt.Errorf("no worker available: %v", last.err)
	}
	return 0, nil, nil, "", fmt.Errorf("no worker available")
}

// backoff returns the pre-retry wait after `attempt` launched attempts:
// backoffBase doubling per attempt, capped at backoffCap, with the
// upper half jittered from the process-wide random source to
// decorrelate concurrent retry storms, within a router and across
// routers.
func (r *Router) backoff(attempt int) time.Duration {
	d := backoffBase
	for i := 1; i < attempt && d < backoffCap; i++ {
		d *= 2
	}
	if d > backoffCap {
		d = backoffCap
	}
	return d/2 + time.Duration(rand.Int64N(int64(d)/2+1))
}

// isReady consults the cached readiness of node, probing /readyz when
// the cache entry is stale. A draining worker answers 503 and is skipped
// until its probe recovers. Probes collapse per node: when a stale entry
// is hit by many concurrent requests, exactly one of them probes and the
// rest share its result — at most one probe per peer per ReadyTTL
// window, no thundering herd on the failover path.
func (r *Router) isReady(node string) bool {
	if ok, fresh := r.readyCached(node); fresh {
		return ok
	}
	v, _, _ := r.probes.Do(node, func() (any, error) {
		// A probe that finished after the check above has refreshed
		// the cache for everyone.
		if ok, fresh := r.readyCached(node); fresh {
			return ok, nil
		}
		ready := r.probe(node)
		r.readyMu.Lock()
		r.ready[node] = readyState{ok: ready, at: time.Now()}
		r.readyMu.Unlock()
		return ready, nil
	})
	ready, _ := v.(bool)
	return ready
}

// readyCached returns node's cached readiness and whether the entry is
// still fresh.
func (r *Router) readyCached(node string) (ok, fresh bool) {
	r.readyMu.Lock()
	st, have := r.ready[node]
	r.readyMu.Unlock()
	if have && time.Since(st.at) < r.cfg.ReadyTTL {
		return st.ok, true
	}
	return false, false
}

// probe performs one GET /readyz.
func (r *Router) probe(node string) bool {
	r.readyProbes.Add(1)
	resp, err := r.client.Get(node + "/readyz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func (r *Router) markUnready(node string) {
	r.readyMu.Lock()
	r.ready[node] = readyState{ok: false, at: time.Now()}
	r.readyMu.Unlock()
}

func (r *Router) countShard(node string, failedOver, fallbackKey bool, d time.Duration) {
	st := r.shards.With(node)
	st.forwarded.Add(1)
	if failedOver {
		st.failovers.Add(1)
	}
	if fallbackKey {
		st.fallback.Add(1)
	}
	st.lat.Observe(d)
}

// rawBatchResponse splices worker batch responses without re-encoding:
// each entry's bytes pass through verbatim, so the assembled body is
// byte-identical to a single process answering the whole batch.
type rawBatchResponse struct {
	Results []json.RawMessage `json:"results"`
}

// handleBatch serves POST /v1/batch: decode once, group items per owning
// shard, fan out one sub-batch per shard concurrently, splice the
// results back into request order. Any request that fails batch-level
// validation is forwarded verbatim to the fallback shard so the error
// body is the worker's own.
func (r *Router) handleBatch(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		r.writeError(rw, http.StatusMethodNotAllowed, "POST required")
		return
	}
	r.batchRequests.Add(1)
	traceID := r.traceID(req)
	rw.Header().Set(service.TraceIDHeader, traceID)
	body, err := service.ReadBody(rw, req)
	if err != nil {
		r.writeError(rw, service.ErrorStatus(err), err.Error())
		return
	}
	breq, _, err := service.DecodeBatch(body, r.cfg.MaxBatch)
	if err != nil {
		r.forward(rw, req, "", "", body, traceID, true)
		return
	}
	r.batchItems.Add(int64(len(breq.Items)))

	// Group item indices by owning shard; remember one representative
	// routing key per shard so failover walks the ring from the owner.
	type group struct {
		key     string
		indices []int
	}
	groups := make(map[string]*group)
	ring := r.topo.View().Ring
	for i := range breq.Items {
		key := service.RoutingHash(&breq.Items[i], r.cfg.MaxVertices)
		owner := ring.Owner(key)
		g, ok := groups[owner]
		if !ok {
			g = &group{key: key}
			groups[owner] = g
		}
		g.indices = append(g.indices, i)
	}

	owners := make([]string, 0, len(groups))
	for o := range groups {
		owners = append(owners, o)
	}
	sort.Strings(owners)

	results := make([]json.RawMessage, len(breq.Items))
	var wg sync.WaitGroup
	for _, o := range owners {
		g := groups[o]
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub := service.BatchSolveRequest{Kind: breq.Kind, Items: make([]service.Request, len(g.indices))}
			for j, idx := range g.indices {
				sub.Items[j] = breq.Items[idx]
			}
			subBody, merr := json.Marshal(&sub)
			if merr != nil {
				r.fillErrors(results, g.indices, fmt.Sprintf("encoding shard batch: %v", merr))
				return
			}
			status, _, respBody, _, ferr := r.forwardTo(req.URL.Path, g.key, "", subBody, traceID, req, true)
			if ferr != nil {
				r.noWorker.Add(1)
				r.fillErrors(results, g.indices, fmt.Sprintf("shard unavailable: %v", ferr))
				return
			}
			var sresp rawBatchResponse
			if status != http.StatusOK || json.Unmarshal(respBody, &sresp) != nil || len(sresp.Results) != len(g.indices) {
				r.fillErrors(results, g.indices, fmt.Sprintf("shard answered status %d", status))
				return
			}
			for j, idx := range g.indices {
				results[idx] = sresp.Results[j]
			}
		}()
	}
	wg.Wait()

	data, merr := json.Marshal(rawBatchResponse{Results: results})
	if merr != nil {
		r.writeError(rw, http.StatusInternalServerError, "encoding response")
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(http.StatusOK)
	rw.Write(data)
}

// fillErrors writes a per-item error entry for every index of a failed
// shard group, leaving the other shards' results intact.
func (r *Router) fillErrors(results []json.RawMessage, indices []int, msg string) {
	data, err := json.Marshal(service.BatchEntry{Error: msg})
	if err != nil {
		data = []byte(`{"error":"shard unavailable"}`)
	}
	for _, idx := range indices {
		results[idx] = data
	}
}

func (r *Router) handleLivez(rw http.ResponseWriter, req *http.Request) {
	r.writeJSON(rw, http.StatusOK, map[string]string{"status": "ok"})
}

// declareMetrics declares the router's families and the Go runtime's.
func (r *Router) declareMetrics() {
	g := &r.reg
	g.Counter("regcoal_router_proxied_total", "Single-solve requests proxied.", r.proxied.Load)
	g.Counter("regcoal_router_batch_requests_total", "POST /v1/batch requests.", r.batchRequests.Load)
	g.Counter("regcoal_router_batch_items_total", "Batch items fanned out.", r.batchItems.Load)
	g.Counter("regcoal_router_fallback_total", "Requests routed to the fallback shard.", r.fallback.Load)
	g.Counter("regcoal_router_failovers_total", "Requests answered by a non-owner after failover.", r.failovers.Load)
	g.Counter("regcoal_router_retries_total", "Attempts retried on a further replica after a transport error or 5xx.", r.retries.Load)
	g.Counter("regcoal_router_hedges_total", "Hedged attempts launched after HedgeAfter without an answer.", r.hedges.Load)
	g.Counter("regcoal_router_ready_probes_total", "Readiness probes issued (singleflighted per peer per ReadyTTL window).", r.readyProbes.Load)
	g.Counter("regcoal_router_no_worker_total", "Requests that found no available worker.", r.noWorker.Load)
	g.Counter("regcoal_router_topology_updates_total", "Admin topology updates applied (epoch bumps).", r.topologyUpdates.Load)
	g.Counter("regcoal_router_topology_broadcast_failures_total", "Topology broadcast pushes that failed.", r.broadcastFails.Load)
	g.Gauge("regcoal_topology_epoch", "Current cluster membership epoch.", func() int64 { return int64(r.topo.View().Epoch) })
	g.CounterVec("regcoal_router_shard_requests_total", "Requests answered per shard.", "shard",
		r.shards.Read(func(s *shardStats) int64 { return s.forwarded.Load() }))
	g.CounterVec("regcoal_router_shard_failovers_total", "Requests a shard answered while standing in for an unready owner.", "shard",
		r.shards.Read(func(s *shardStats) int64 { return s.failovers.Load() }))
	g.CounterVec("regcoal_router_shard_fallback_total", "Fallback-keyed (unroutable) requests a shard answered.", "shard",
		r.shards.Read(func(s *shardStats) int64 { return s.fallback.Load() }))
	g.HistogramVec("regcoal_router_shard_latency_seconds", "Router-observed forward latency per shard.", []string{"shard"}, func(emit func(*obs.Histogram, ...string)) {
		r.shards.Each(func(node string, s *shardStats) { emit(&s.lat, node) })
	})
	obs.DeclareRuntime(g)
}

// Stats returns the router's /stats snapshot. Shards that never answered
// a request are absent, so the router_shard_* keys read as "who carried
// traffic".
func (r *Router) Stats() obs.Snapshot { return r.reg.Snapshot() }

func (r *Router) handleStats(rw http.ResponseWriter, req *http.Request) {
	r.writeJSON(rw, http.StatusOK, r.Stats())
}

func (r *Router) handleMetrics(rw http.ResponseWriter, req *http.Request) {
	rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.reg.WritePrometheus(rw)
}

func (r *Router) writeJSON(rw http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(rw, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	rw.Write(data)
}

func (r *Router) writeError(rw http.ResponseWriter, status int, msg string) {
	r.writeJSON(rw, status, service.ErrorResponse{Error: msg})
}
