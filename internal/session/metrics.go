package session

import (
	"sync/atomic"

	"regcoal/internal/obs"
)

// Metrics is the session layer's counter set, rendered on /metrics and
// /stats as the regcoal_session_* families (see Declare). All fields are
// atomic; the hot path only adds.
type Metrics struct {
	Created atomic.Int64
	Closed  atomic.Int64
	Evicted atomic.Int64
	Expired atomic.Int64
	Active  atomic.Int64

	Applies   atomic.Int64 // delta batches applied
	Deltas    atomic.Int64 // individual delta ops applied
	Rejected  atomic.Int64 // batches rejected with 400
	Conflicts atomic.Int64 // version/base-hash conflicts (409)

	PathCached      atomic.Int64
	PathMemo        atomic.Int64
	PathIncremental atomic.Int64
	PathFresh       atomic.Int64

	ChordalWins atomic.Int64 // components won by the chordal-inc member

	Rebuilds          atomic.Int64 // dormant sessions replayed from their op log
	RebuildFailures   atomic.Int64 // ...whose log failed to replay
	RebuildDivergence atomic.Int64 // ...whose replay ended at a version other than the log's
}

// Declare declares the session families into r.
func (m *Metrics) Declare(r *obs.Registry) {
	r.Counter("regcoal_session_created_total", "Delta sessions created.", m.Created.Load)
	r.Counter("regcoal_session_closed_total", "Delta sessions closed by the client.", m.Closed.Load)
	r.Counter("regcoal_session_evicted_total", "Delta sessions evicted by the LRU cap.", m.Evicted.Load)
	r.Counter("regcoal_session_expired_total", "Delta sessions expired by the idle TTL.", m.Expired.Load)
	r.Counter("regcoal_session_applies_total", "Delta batches applied.", m.Applies.Load)
	r.Counter("regcoal_session_deltas_total", "Individual delta operations applied.", m.Deltas.Load)
	r.Counter("regcoal_session_rejected_total", "Delta batches rejected as invalid (400).", m.Rejected.Load)
	r.Counter("regcoal_session_conflicts_total", "Delta requests rejected on version or base-hash conflict (409).", m.Conflicts.Load)
	r.CounterVec("regcoal_session_solves_total", "Session solves per path (cached, memo, incremental, fresh).", "path", func(emit func(string, int64)) {
		emit("cached", m.PathCached.Load())
		emit("memo", m.PathMemo.Load())
		emit("incremental", m.PathIncremental.Load())
		emit("fresh", m.PathFresh.Load())
	})
	r.Counter("regcoal_session_chordal_wins_total", "Components whose best answer came from the chordal-inc member.", m.ChordalWins.Load)
	r.Counter("regcoal_session_rebuilds_total", "Dormant sessions rebuilt by replaying their replicated op log.", m.Rebuilds.Load)
	r.Counter("regcoal_session_rebuild_failures_total", "Session rebuilds that failed to replay; the log is dropped.", m.RebuildFailures.Load)
	r.Counter("regcoal_session_rebuild_divergence_total", "Session rebuilds whose replay ended at a version other than its log's; the log is dropped.", m.RebuildDivergence.Load)
	r.Gauge("regcoal_session_active", "Delta sessions held, live or dormant (a replica's op log awaiting its first use).", m.Active.Load)
}
