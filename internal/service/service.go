// Package service is the online request-serving layer over the coalescing
// substrate: an HTTP/JSON API that accepts interference graphs (native
// JSON, the textual challenge format, or DIMACS), dispatches them onto a
// shared worker pool (internal/engine), races a strategy portfolio under a
// per-request deadline (portfolio.go), and memoizes answers in a sharded
// LRU keyed by canonical graph hash (internal/graph CanonicalForm) so that
// repeated instances — even renumbered ones the refinement can identify —
// are answered from memory with byte-identical bodies. Concurrent
// identical misses collapse to one portfolio race through a singleflight
// group keyed the same way (internal/singleflight).
//
// Endpoints:
//
//	POST /v1/coalesce  race the coalescing portfolio; best answer wins
//	POST /v1/allocate  race the allocators (IRC + Chaitin + spill-first)
//	POST /v1/spill     race the spillers (greedy, incremental, exact)
//	POST /v1/batch     many instances, one decode pass, pool fan-out
//	GET  /healthz      liveness (alias of /livez)
//	GET  /livez        liveness: process is up
//	GET  /readyz       readiness: 503 while draining, else 200
//	GET  /metrics      Prometheus exposition
//	GET  /stats        JSON counter snapshot
//
// Overload surfaces as backpressure: when the bounded submission queue is
// full, requests are rejected with 429 instead of queueing without bound.
//
// These handlers are the only request pipeline: the cluster worker in
// internal/cluster joins it through the Tier hook (peer fill, admission,
// push-on-compute, session replication) rather than wrapping it. See
// prepared.go.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"regcoal/internal/engine"
	"regcoal/internal/graph"
	"regcoal/internal/obs"
	"regcoal/internal/session"
	"regcoal/internal/singleflight"
)

// Trace propagation headers. TraceIDHeader carries the request's trace
// ID end to end (router → worker → peer fill); TraceHeader set to "1"
// (or the trace=1 query parameter) opts the response body into a full
// solve timeline; PhasesHeader reports per-phase durations on every
// traced response; FamilyHeader lets load generators label requests
// with a corpus family for pprof attribution and /debug/requests.
// CanonHeader carries the canonical form a cluster router routed a
// request by, for the worker to verify instead of recompute (see
// canonform.go).
const (
	TraceIDHeader = "X-Regcoal-Trace-Id"
	TraceHeader   = "X-Regcoal-Trace"
	PhasesHeader  = "X-Regcoal-Phases"
	FamilyHeader  = "X-Regcoal-Family"
	CanonHeader   = "X-Regcoal-Canon"
)

// Request limits. The body cap is fixed; the vertex and batch caps are
// the defaults of Config.MaxVertices and Config.MaxBatch. A cluster
// router reads the same values, so its routing and batch decisions agree
// with its workers' validation.
const (
	// MaxBodyBytes bounds a request body, and an entry or session log on
	// a cluster's internal wires.
	MaxBodyBytes = 64 << 20
	// DefaultMaxVertices caps a request graph's vertex count.
	DefaultMaxVertices = 200000
	// DefaultMaxBatch caps the graphs one batch request may carry.
	DefaultMaxBatch = 256
)

const (
	// cacheShards spreads the result cache's locking.
	cacheShards = 16
	// spillExactNodes is the branch-and-bound node budget of the spill
	// endpoint's exact member (~tens of milliseconds): beyond it the
	// member answers with its anytime incumbent instead of holding a
	// worker for the rest of the deadline.
	spillExactNodes = 1 << 14
)

// Config parameterizes a Server. Zero values take defaults.
type Config struct {
	// Workers is the pool size (default GOMAXPROCS).
	Workers int
	// QueueCap bounds jobs waiting for a worker; a full queue rejects
	// with 429 (default 4 × Workers).
	QueueCap int
	// CacheCapacity is the result cache size in entries (default 4096;
	// negative disables caching).
	CacheCapacity int
	// DefaultDeadline applies when a request does not set deadline_ms;
	// MaxDeadline clamps what a request may ask for (defaults 2s / 30s).
	DefaultDeadline, MaxDeadline time.Duration
	// Portfolio is the default coalescing strategy portfolio (default
	// DefaultPortfolio()).
	Portfolio []string
	// MaxVertices rejects oversized request graphs with 400 (default
	// DefaultMaxVertices).
	MaxVertices int
	// MaxBatch bounds the graphs one batch request may carry (default
	// DefaultMaxBatch).
	MaxBatch int
	// MaxSessions caps the delta-solve sessions held, live or dormant
	// (a replica's op log), with LRU eviction past it (default 256), and
	// SessionTTL expires idle ones (default 15m).
	MaxSessions int
	SessionTTL  time.Duration
}

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 4 * c.Workers
	}
	if c.CacheCapacity == 0 {
		c.CacheCapacity = 4096
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 2 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 30 * time.Second
	}
	if len(c.Portfolio) == 0 {
		c.Portfolio = DefaultPortfolio()
	}
	if c.MaxVertices <= 0 {
		c.MaxVertices = DefaultMaxVertices
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
}

// Server is the online coalescing service.
type Server struct {
	cfg      Config
	pool     *engine.Pool
	cache    *Cache
	metrics  *Metrics
	reg      obs.Registry // the counter and gauge families behind /metrics and /stats
	lat      *obs.Set
	tracer   *obs.Tracer
	mux      *http.ServeMux
	flights  singleflight.Group
	sessions *session.Store
	tier     Tier // nil on a single node; see SetTier

	draining  atomic.Bool
	baseCtx   context.Context
	cancelAll context.CancelFunc
}

// New builds a Server and its worker pool. Call Close to drain.
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	if _, err := coalesceRacers(&graph.File{G: graph.New(1), K: 1}, cfg.Portfolio); err != nil {
		return nil, fmt.Errorf("service: bad portfolio: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		pool:      engine.NewPool(cfg.Workers, cfg.QueueCap),
		cache:     NewCache(cfg.CacheCapacity, cacheShards),
		metrics:   &Metrics{start: time.Now()},
		lat:       obs.NewSet(),
		tracer:    obs.NewTracer(128, 32, time.Millisecond),
		mux:       http.NewServeMux(),
		baseCtx:   ctx,
		cancelAll: cancel,
		sessions: session.NewStore(session.StoreConfig{
			MaxSessions: cfg.MaxSessions,
			TTL:         cfg.SessionTTL,
			Decode: func(create []byte) (*graph.File, int, error) {
				return decodeCreate(create, cfg.MaxVertices)
			},
		}),
	}
	s.declareMetrics()
	s.mux.HandleFunc("/v1/coalesce", s.handleSolve(KindCoalesce))
	s.mux.HandleFunc("/v1/coalesce/delta", s.handleDelta)
	s.mux.HandleFunc("/v1/allocate", s.handleSolve(KindAllocate))
	s.mux.HandleFunc("/v1/spill", s.handleSolve(KindSpill))
	s.mux.HandleFunc("/v1/batch", s.handleBatch)
	s.mux.HandleFunc("/healthz", s.handleLivez)
	s.mux.HandleFunc("/livez", s.handleLivez)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/debug/requests", s.tracer.ServeDebug)
	return s, nil
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the counters (for tests and embedding).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Registry exposes the metric families rendered on /metrics and /stats;
// an embedder (the cluster worker) declares its own families into it.
func (s *Server) Registry() *obs.Registry { return &s.reg }

// Config returns the server's effective (default-filled) configuration.
func (s *Server) Config() Config { return s.cfg }

// Close cancels in-flight computations and drains the worker pool. Call
// after the HTTP listener has stopped accepting requests (and, for a
// graceful exit, after Drain has let in-flight requests finish — Close
// alone cuts running races short).
func (s *Server) Close() {
	s.cancelAll()
	s.pool.Close()
}

// BeginDrain flips the server to draining: /readyz starts answering 503
// so routers and load balancers stop sending new work, while already
// accepted requests (including batch fan-outs) keep computing.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain marks the server draining and blocks until every in-flight
// request (single and batch) has been answered, or ctx expires. The
// graceful shutdown order is: stop advertising readiness and wait for
// quiesce (Drain), stop the listener, then Close.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.metrics.InFlight.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Kind identifies a solve endpoint: which portfolio a request races.
type Kind int

const (
	KindCoalesce Kind = iota
	KindAllocate
	KindSpill
)

func (k Kind) String() string {
	switch k {
	case KindAllocate:
		return "allocate"
	case KindSpill:
		return "spill"
	}
	return "coalesce"
}

// ParseKind resolves an endpoint name ("coalesce", "allocate", "spill");
// the empty string defaults to coalesce.
func ParseKind(name string) (Kind, error) {
	switch name {
	case "", "coalesce":
		return KindCoalesce, nil
	case "allocate":
		return KindAllocate, nil
	case "spill":
		return KindSpill, nil
	}
	return KindCoalesce, fmt.Errorf("unknown kind %q (want coalesce, allocate, spill)", name)
}

// httpError carries a status code through the solve path.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

// Error builds an error that the handlers answer with the given status
// and {"error": msg} body — how a Tier rejects a request.
func Error(status int, msg string) error { return &httpError{status: status, msg: msg} }

// ErrorStatus maps a solve-path error to its HTTP status (500 when the
// error carries none).
func ErrorStatus(err error) int {
	he := &httpError{}
	if errors.As(err, &he) {
		return he.status
	}
	return http.StatusInternalServerError
}

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// endpointOf maps a solve kind to its observability endpoint.
func endpointOf(kind Kind) obs.Endpoint {
	switch kind {
	case KindAllocate:
		return obs.EndpointAllocate
	case KindSpill:
		return obs.EndpointSpill
	}
	return obs.EndpointCoalesce
}

// startTrace begins a pooled trace for one request: the propagated
// X-Regcoal-Trace-Id is adopted when present (a fresh ID is minted
// otherwise), so one ID names a request across router, worker, and
// peer-fill hops; the X-Regcoal-Family label is captured.
func (s *Server) startTrace(e obs.Endpoint, r *http.Request) *obs.Trace {
	id, _ := obs.ParseTraceID(r.Header.Get(TraceIDHeader))
	tr := s.tracer.Start(e, id)
	tr.Family = r.Header.Get(FamilyHeader)
	return tr
}

// finishTrace closes the trace, feeds its end-to-end and per-phase
// durations into the latency histograms, and files it into the
// recent/slow rings. Allocation-free in steady state.
func (s *Server) finishTrace(tr *obs.Trace) {
	tr.EndPhase()
	for i := 0; i < tr.NPhases; i++ {
		sp := &tr.Phases[i]
		s.lat.ObservePhase(tr.Endpoint, sp.Phase, time.Duration(sp.EndNS-sp.StartNS))
	}
	s.lat.ObserveRequest(tr.Endpoint, time.Duration(tr.Since()))
	s.tracer.Finish(tr)
}

// Tracer exposes the trace rings (for embedders mounting their own
// /debug/requests route).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// traceWanted reports whether the request opted into a full solve
// timeline in the response body (?trace=1 or X-Regcoal-Trace: 1).
func traceWanted(r *http.Request) bool {
	return r.URL.Query().Get("trace") == "1" || r.Header.Get(TraceHeader) == "1"
}

// tierHeader names where a clustered answer came from: this node's
// cache, a peer's, or a computation.
func tierHeader(disposition string, filled bool) string {
	switch {
	case disposition != "hit":
		return "compute"
	case filled:
		return "peer"
	}
	return "local"
}

func (s *Server) handleSolve(kind Kind) http.HandlerFunc {
	endpoint := endpointOf(kind)
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			s.writeError(w, &httpError{status: http.StatusMethodNotAllowed, msg: "POST required"})
			return
		}
		switch kind {
		case KindCoalesce:
			s.metrics.CoalesceRequests.Add(1)
		case KindAllocate:
			s.metrics.AllocateRequests.Add(1)
		case KindSpill:
			s.metrics.SpillRequests.Add(1)
		}
		s.metrics.InFlight.Add(1)
		defer s.metrics.InFlight.Add(-1)

		tr := s.startTrace(endpoint, r)
		defer s.finishTrace(tr)
		w.Header().Set(TraceIDHeader, tr.ID.String())
		fail := func(err error) {
			tr.Status = ErrorStatus(err)
			s.writeError(w, err)
		}

		tr.BeginPhase(obs.PhaseDecode)
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
		if err != nil {
			fail(badRequest("decoding request: %v", err))
			return
		}
		req, f, err := decodeSolve(body, s.cfg.MaxVertices)
		if err != nil {
			fail(err)
			return
		}
		p, err := s.prepare(kind, &req, f, r.Header.Get(CanonHeader), tr)
		if err != nil {
			fail(err)
			return
		}
		out, disposition, filled, err := s.solve(p, tr, true)
		if err != nil {
			fail(err)
			return
		}
		tr.BeginPhase(obs.PhaseEncode)
		data, err := json.Marshal(out)
		tr.EndPhase()
		if err != nil {
			s.metrics.Errors.Add(1)
			fail(&httpError{status: http.StatusInternalServerError, msg: "encoding response"})
			return
		}
		tr.Cache = disposition
		tr.Status = http.StatusOK
		w.Header().Set("X-Regcoal-Cache", disposition)
		if s.tier != nil {
			w.Header().Set("X-Regcoal-Tier", tierHeader(disposition, filled))
		}
		if h := obs.BuildPhasesHeader(tr); h != "" {
			w.Header().Set(PhasesHeader, h)
		}
		if traceWanted(r) {
			// Opt-in only: the spliced body is the one deliberate departure
			// from byte-identity, and the splice leaves every preceding byte
			// untouched.
			tr.DurNS = tr.Since()
			data = obs.SpliceTraceJSON(data, tr)
		}
		s.writeRaw(w, http.StatusOK, data)
	}
}

// handleBatch serves POST /v1/batch: many instances of one kind decoded
// in a single pass and fanned out onto the pool. In a cluster, the
// router splits these per shard; single-node, the amortization is the
// one JSON decode and connection for the whole set.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, &httpError{status: http.StatusMethodNotAllowed, msg: "POST required"})
		return
	}
	s.metrics.BatchRequests.Add(1)
	s.metrics.InFlight.Add(1)
	defer s.metrics.InFlight.Add(-1)

	var req BatchSolveRequest
	body := http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, badRequest("decoding batch request: %v", err))
		return
	}
	kind, err := ParseKind(req.Kind)
	if err != nil {
		s.writeError(w, badRequest("%v", err))
		return
	}
	if len(req.Items) == 0 {
		s.writeError(w, badRequest("empty batch"))
		return
	}
	if len(req.Items) > s.cfg.MaxBatch {
		s.writeError(w, badRequest("batch carries %d graphs, limit %d", len(req.Items), s.cfg.MaxBatch))
		return
	}
	s.writeJSON(w, http.StatusOK, s.runBatch(kind, req.Items))
}

// runBatch fans the items out onto the pool with bounded concurrency and
// collects all results in request order. Per-element failures (including
// 429 saturation) are reported in place; the batch itself answers 200.
func (s *Server) runBatch(kind Kind, items []Request) *BatchResponse {
	s.metrics.BatchGraphs.Add(int64(len(items)))
	resp := &BatchResponse{Results: make([]BatchEntry, len(items))}
	// Fan out with bounded concurrency: canonicalization and parsing run
	// on these goroutines before the pool's own bound applies, so a batch
	// must not spawn one goroutine per element.
	fanout := s.cfg.Workers * 2
	if fanout > len(items) {
		fanout = len(items)
	}
	idxCh := make(chan int)
	done := make(chan struct{})
	for w := 0; w < fanout; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range idxCh {
				resp.Results[i] = s.solveBatchItem(kind, &items[i])
			}
		}()
	}
	for i := range items {
		idxCh <- i
	}
	close(idxCh)
	for w := 0; w < fanout; w++ {
		<-done
	}
	return resp
}

// solveBatchItem answers one batch element as an in-place entry: the
// single-solve pipeline without admission (the fan-out is already bounded
// by the pool queue, whose saturation surfaces per entry). A malformed
// element, or one every strategy declines, counts as a bad request.
func (s *Server) solveBatchItem(kind Kind, sub *Request) BatchEntry {
	p, err := s.prepare(kind, sub, nil, "", nil)
	if err != nil {
		s.metrics.BadRequests.Add(1)
		return BatchEntry{Error: err.Error()}
	}
	out, _, _, err := s.solve(p, nil, false)
	if err != nil {
		if ErrorStatus(err) == http.StatusBadRequest {
			s.metrics.BadRequests.Add(1)
		}
		return BatchEntry{Error: err.Error()}
	}
	switch v := out.(type) {
	case *CoalesceResult:
		return BatchEntry{Coalesce: v}
	case *AllocateResult:
		return BatchEntry{Allocate: v}
	case *SpillResult:
		return BatchEntry{Spill: v}
	}
	return BatchEntry{Error: "internal: unknown result type"}
}

func (s *Server) render(kind Kind, inst *graph.File, canon *graph.Canonical, e *entry) any {
	switch kind {
	case KindAllocate:
		return renderAllocate(inst, canon.Hash, canon.Perm, e)
	case KindSpill:
		return renderSpill(inst, canon.Hash, canon.Perm, e)
	}
	return renderCoalesce(inst, canon.Hash, canon.Perm, e)
}

func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
	s.lat.WritePrometheus(w)
	obs.WriteRuntimePrometheus(w)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.reg.Snapshot()
	if lat := s.lat.Snapshot(); len(lat) > 0 {
		st["latency"] = lat
	}
	s.writeJSON(w, http.StatusOK, st)
}

// writeJSON marshals once and writes the exact bytes: the body of a
// repeated request must be byte-identical, so nothing non-deterministic
// may enter here.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		s.metrics.Errors.Add(1)
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	s.writeRaw(w, status, data)
}

func (s *Server) writeRaw(w http.ResponseWriter, status int, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(data)
}

// writeError answers err as its status and {"error"} body. Every 400 the
// handlers write passes through here, so this is where bad requests are
// counted — once each.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	he := &httpError{}
	if !errors.As(err, &he) {
		he = &httpError{status: http.StatusInternalServerError, msg: err.Error()}
	}
	if he.status == http.StatusBadRequest {
		s.metrics.BadRequests.Add(1)
	}
	s.writeJSON(w, he.status, ErrorResponse{Error: he.msg})
}
