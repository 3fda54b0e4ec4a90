package service

import (
	"sync/atomic"
	"time"

	"regcoal/internal/obs"
)

// Metrics are the service's counters. Everything is atomic; the families
// that render them on GET /metrics and GET /stats are declared once, in
// declareMetrics.
type Metrics struct {
	start time.Time

	CoalesceRequests      atomic.Int64
	AllocateRequests      atomic.Int64
	SpillRequests         atomic.Int64
	DeltaRequests         atomic.Int64
	BatchRequests         atomic.Int64
	BatchGraphs           atomic.Int64
	CacheHits             atomic.Int64
	CacheMisses           atomic.Int64
	SingleflightCollapses atomic.Int64
	Rejected              atomic.Int64
	HeavyLaneRejects      atomic.Int64
	BadRequests           atomic.Int64
	Errors                atomic.Int64
	DeadlineHits          atomic.Int64
	InFlight              atomic.Int64
	CanonForwarded        atomic.Int64
	CanonForwardRejected  atomic.Int64

	strategyWins obs.Labeled[atomic.Int64] // portfolio races won, per strategy
}

// StrategyWon counts a portfolio race won by the named strategy.
func (m *Metrics) StrategyWon(name string) { m.strategyWins.With(name).Add(1) }

// declareMetrics declares the service's families, the session layer's,
// the tracer's latency histograms and the Go runtime's into its
// registry.
func (s *Server) declareMetrics() {
	m, r := s.metrics, &s.reg
	r.CounterVec("regcoal_requests_total", "Requests per endpoint.", "endpoint", func(emit func(string, int64)) {
		emit("coalesce", m.CoalesceRequests.Load())
		emit("allocate", m.AllocateRequests.Load())
		emit("spill", m.SpillRequests.Load())
		emit("delta", m.DeltaRequests.Load())
	})
	r.Counter("regcoal_batch_requests_total", "POST /v1/batch requests.", m.BatchRequests.Load)
	r.Counter("regcoal_batch_graphs_total", "Graphs received inside batch requests.", m.BatchGraphs.Load)
	r.Counter("regcoal_cache_hits_total", "Requests answered from the result cache.", m.CacheHits.Load)
	r.Counter("regcoal_cache_misses_total", "Requests that had to compute.", m.CacheMisses.Load)
	r.Counter("regcoal_cache_evictions_total", "Entries evicted from the result cache.", s.cache.Evictions)
	r.Counter("regcoal_singleflight_collapses_total", "Requests answered by collapsing onto a concurrent identical request's race.", m.SingleflightCollapses.Load)
	r.Counter("regcoal_rejected_total", "Requests rejected with 429 (pool saturated or heavy lane full).", m.Rejected.Load)
	r.Counter("regcoal_heavy_lane_rejects_total", "Heavy-instance computes rejected with 429 because every heavy-lane slot was taken.", m.HeavyLaneRejects.Load)
	r.Counter("regcoal_bad_requests_total", "Requests rejected with 400.", m.BadRequests.Load)
	r.Counter("regcoal_errors_total", "Requests failed with 5xx.", m.Errors.Load)
	r.Counter("regcoal_deadline_hits_total", "Races cut off by the request deadline.", m.DeadlineHits.Load)
	r.Counter("regcoal_canon_forwarded_total", "Forwarded canonical forms verified and used instead of recomputed.", m.CanonForwarded.Load)
	r.Counter("regcoal_canon_forward_rejected_total", "Forwarded canonical forms that failed verification and were recomputed.", m.CanonForwardRejected.Load)
	r.Gauge("regcoal_in_flight", "Requests currently being served.", m.InFlight.Load)
	r.Gauge("regcoal_cache_entries", "Entries in the result cache.", func() int64 { return int64(s.cache.Len()) })
	r.Gauge("regcoal_queue_depth", "Jobs waiting for a pool worker.", func() int64 { return int64(s.pool.QueueDepth()) })
	r.Gauge("regcoal_heavy_lane_depth", "Heavy-instance computes holding a heavy-lane slot.", func() int64 { return int64(len(s.heavy)) })
	r.Gauge("regcoal_uptime_seconds", "Seconds since server start.", func() int64 { return int64(time.Since(m.start).Seconds()) })
	r.Gauge("regcoal_pool_workers", "Worker goroutines in the solve pool.", func() int64 { return int64(s.cfg.Workers) })
	r.CounterVec("regcoal_strategy_wins_total", "Portfolio races won per strategy.", "strategy", m.strategyWins.Read((*atomic.Int64).Load))
	s.sessions.Metrics().Declare(r)
	s.tracer.Declare(r)
	obs.DeclareRuntime(r)
}

// Stats decodes a service's /stats body (clients and tests): the keys of
// the service's own counters and gauges. The body itself is the registry
// snapshot.
type Stats struct {
	UptimeSeconds         float64          `json:"uptime_seconds"`
	Requests              map[string]int64 `json:"requests"`
	BatchRequests         int64            `json:"batch_requests"`
	BatchGraphs           int64            `json:"batch_graphs"`
	CacheHits             int64            `json:"cache_hits"`
	CacheMisses           int64            `json:"cache_misses"`
	CacheEvictions        int64            `json:"cache_evictions"`
	CacheEntries          int              `json:"cache_entries"`
	SingleflightCollapses int64            `json:"singleflight_collapses"`
	Rejected              int64            `json:"rejected"`
	BadRequests           int64            `json:"bad_requests"`
	Errors                int64            `json:"errors"`
	DeadlineHits          int64            `json:"deadline_hits"`
	CanonForwarded        int64            `json:"canon_forwarded"`
	CanonForwardRejected  int64            `json:"canon_forward_rejected"`
	InFlight              int64            `json:"in_flight"`
	QueueDepth            int              `json:"queue_depth"`
	StrategyWins          map[string]int64 `json:"strategy_wins"`
}
