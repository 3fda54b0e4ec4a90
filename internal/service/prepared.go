package service

// The solve pipeline every solve and batch request runs through:
//
//	p, err := s.prepare(kind, req, f, form, tr)      // parse, validate, canonicalize or verify form
//	out, disp, filled, err := s.solve(p, tr, admit)  // cache → Fill → singleflight → Admit → race
//
// prepare is the expensive decode side (graph build + Weisfeiler-Leman
// canonicalization, or verification of the form a router forwarded);
// solve is the answer side. A distribution tier (the cluster worker in
// internal/cluster) joins the pipeline through the Tier hook installed
// with SetTier instead of wrapping the handlers: it sees each Prepared's
// canonical hash, cache key and size at fixed points, and never the
// response bytes.

import (
	"context"
	"errors"
	"net/http"
	"runtime/pprof"
	"strings"
	"time"

	"regcoal/internal/engine"
	"regcoal/internal/graph"
	"regcoal/internal/obs"
	"regcoal/internal/session"
)

// Tier is the hook a distribution tier installs into the pipeline with
// Server.SetTier (the cluster worker: peer fill, admission lanes,
// push-on-compute and session replication). The service calls it at
// four points; a Server without a tier behaves as a single node and
// keeps no session op logs.
type Tier interface {
	// Fill runs after a local cache miss and may seed the local cache
	// from a peer (CacheSeed); it reports whether it did.
	Fill(p *Prepared, tr *obs.Trace) bool
	// Admit gates a single solve about to compute — not hits, not
	// requests collapsing onto a running race, not batch items. It
	// returns the slot's release, or an error (see Error) to answer with.
	Admit(p *Prepared) (release func(), err error)
	// Computed runs after the request led a fresh race whose answer
	// entered the cache.
	Computed(p *Prepared, tr *obs.Trace)
	// SessionLogged runs after a session op succeeded, before its
	// response is written, with the record the op added to the
	// session's op log: the full log on create, a one-delta suffix on
	// delta, a close on close.
	SessionLogged(rec *session.ExportRecord)
}

// SetTier installs t into the request pipeline. Call before serving.
func (s *Server) SetTier(t Tier) { s.tier = t }

// Prepared is a parsed, validated, canonicalized solve request, ready to
// be answered by solve. It is immutable after prepare and safe to share
// across goroutines.
type Prepared struct {
	kind       Kind
	inst       *graph.File
	canon      *graph.Canonical
	strategies []string
	key        string
	deadlineMS int64
	noCache    bool
}

// Key is the canonical cache key: kind, normalized strategy list, and
// canonical graph hash. Identical keys get identical response bodies.
func (p *Prepared) Key() string { return p.key }

// Hash is the canonical graph hash — the cluster routing key: relabeled
// duplicates of one instance share it.
func (p *Prepared) Hash() string { return p.canon.Hash }

// Vertices reports the instance size.
func (p *Prepared) Vertices() int { return p.inst.G.N() }

// Density is the instance's edge density in [0,1]: E / (N choose 2).
func (p *Prepared) Density() float64 {
	n := p.inst.G.N()
	if n < 2 {
		return 0
	}
	return float64(p.inst.G.E()) / (float64(n) * float64(n-1) / 2)
}

// prepare parses and validates a single-graph request into a Prepared:
// graph decode, register-count resolution, size cap, strategy validation,
// freeze, and canonicalization. f is the graph when the body's decode
// already built it (nil: build it from req.Graph); both decoders refuse
// a graph over the cap before building it. form is the request's
// CanonHeader value ("" when it has none). Every error is a 400. The
// canonicalization phase is recorded onto tr (nil ok), closing any phase
// open on entry.
func (s *Server) prepare(kind Kind, req *Request, f *graph.File, form string, tr *obs.Trace) (*Prepared, error) {
	if f == nil {
		if req.Graph == nil {
			return nil, badRequest("missing graph")
		}
		var ferr error
		f, ferr = req.Graph.ToFile(s.cfg.MaxVertices)
		if big := (*graph.SizeError)(nil); errors.As(ferr, &big) {
			// Refused before it was built. A missing register count
			// still answers first, as it did when the cap was checked
			// after the build.
			if req.K <= 0 && req.Graph.K <= 0 && big.K <= 0 {
				return nil, badRequest(noRegisterCount)
			}
			return nil, badRequest("graph has %d vertices, limit %d", big.N, big.Limit)
		}
		if ferr != nil {
			return nil, badRequest("%v", ferr)
		}
	}
	k := f.K
	if req.K > 0 {
		k = req.K
	}
	if k <= 0 {
		return nil, badRequest(noRegisterCount)
	}
	// Freeze the parsed graph: every portfolio racer reads this one
	// instance concurrently — a shared read-only snapshot instead of a
	// per-racer clone. A racer that tried to mutate it would panic
	// loudly instead of corrupting its rivals.
	inst := &graph.File{G: f.G.Freeze(), K: k}

	strategies := req.Strategies
	if len(strategies) == 0 && kind == KindCoalesce {
		strategies = s.cfg.Portfolio
	}
	strategies = normalizeStrategies(strategies)
	// Validate up front so bad names are 400s, not queued work.
	var err error
	switch kind {
	case KindCoalesce:
		_, err = coalesceRacers(inst, strategies)
	case KindAllocate:
		_, err = allocateRacers(inst, strategies)
	case KindSpill:
		_, err = spillRacers(inst, strategies)
	}
	if err != nil {
		return nil, badRequest("%v", err)
	}

	tr.BeginPhase(obs.PhaseCanon)
	canon := s.canonicalForm(inst, form)
	tr.EndPhase()
	return &Prepared{
		kind:       kind,
		inst:       inst,
		canon:      canon,
		strategies: strategies,
		key:        kind.String() + "|" + strings.Join(strategies, ",") + "|" + canon.Hash,
		deadlineMS: req.DeadlineMS,
		noCache:    req.NoCache,
	}, nil
}

// solve answers a prepared request as a typed result plus its cache
// disposition ("hit", "miss", or "collapse" when the answer was shared
// from a concurrent identical request's race) and whether a hit was
// filled from a peer: consult the cache, then the tier's peer fill,
// collapse concurrent identical misses into one computation via the
// singleflight group, whose leader re-checks the cache first, or compute
// on the pool under the request deadline.
// Leader-only bookkeeping (admission, deadline-hit and strategy-win
// counters, the cache insert) happens inside the flight so a collapse of
// n requests costs one slot and records one race, not n. admit applies
// the tier's admission lanes (single solves, not batch items). tr may be
// nil; the rendered answer is identical either way.
func (s *Server) solve(p *Prepared, tr *obs.Trace, admit bool) (out any, disposition string, filled bool, err error) {
	if p.noCache {
		// no_cache means "compute fresh": no cache lookup or insert, and
		// no collapsing onto someone else's race.
		e, cerr := s.computeOnPool(p, tr, admit)
		if cerr != nil {
			return nil, "", false, cerr
		}
		s.recordComputed(e, tr)
		return s.render(p.kind, p.inst, p.canon, e), "miss", false, nil
	}
	tr.BeginPhase(obs.PhaseCache)
	e, hit := s.cache.Get(p.key)
	tr.EndPhase()
	if !hit && s.tier != nil {
		tr.BeginPhase(obs.PhasePeer)
		if s.tier.Fill(p, tr) {
			e, hit = s.cache.Get(p.key)
			filled = hit
		}
		tr.EndPhase()
	}
	if hit {
		s.metrics.CacheHits.Add(1)
		noteEntry(tr, &e)
		return s.render(p.kind, p.inst, p.canon, &e), "hit", filled, nil
	}
	v, ferr, shared := s.flights.Do(p.key, func() (any, error) {
		// A request whose lookup and peer fill missed can get here after
		// an identical request's flight has ended and cached the answer:
		// re-check, so it answers from the cache instead of leading a
		// second race.
		if e, ok := s.cache.Get(p.key); ok {
			return flight{e: &e, hit: true}, nil
		}
		e, cerr := s.computeOnPool(p, tr, admit)
		if cerr != nil {
			return nil, cerr
		}
		s.recordComputed(e, tr)
		s.cache.Put(p.key, e)
		return flight{e: e}, nil
	})
	if fl, _ := v.(flight); fl.hit {
		// The flight read the cache, so it and every request collapsed
		// onto it are hits: no race ran.
		s.metrics.CacheHits.Add(1)
		noteEntry(tr, fl.e)
		return s.render(p.kind, p.inst, p.canon, fl.e), "hit", false, nil
	}
	// Misses count only consulted lookups: no_cache requests never touch
	// the cache and must not skew the hit rate.
	s.metrics.CacheMisses.Add(1)
	if ferr != nil {
		return nil, "", false, ferr
	}
	ce := v.(flight).e
	if shared {
		s.metrics.SingleflightCollapses.Add(1)
		// The entry is shared, but the rendering is this request's own:
		// a collapsed isomorphic duplicate gets its answer in its own
		// vertex numbering, exactly like a cache hit would. The follower's
		// trace still learns the shared race's winner, just not its member
		// timeline (that belongs to the leader's trace).
		noteEntry(tr, ce)
		return s.render(p.kind, p.inst, p.canon, ce), "collapse", false, nil
	}
	if s.tier != nil {
		s.tier.Computed(p, tr)
	}
	return s.render(p.kind, p.inst, p.canon, ce), "miss", false, nil
}

// flight is the result a singleflight leader shares: the answer, and
// whether it came from the cache rather than a race.
type flight struct {
	e   *entry
	hit bool
}

// noteEntry stamps an answer's provenance — winning strategy and whether
// its race was cut off by the deadline — onto the trace.
func noteEntry(tr *obs.Trace, e *entry) {
	if tr == nil {
		return
	}
	tr.Winner = e.strategy
	tr.DeadlineHit = e.deadlineHit
}

func (s *Server) recordComputed(e *entry, tr *obs.Trace) {
	if e.deadlineHit {
		s.metrics.DeadlineHits.Add(1)
	}
	s.metrics.StrategyWon(e.strategy)
	noteEntry(tr, e)
}

// computeOnPool schedules the portfolio race on the worker pool under the
// request deadline and maps pool saturation to 429; with admit set, the
// tier's admission lanes gate it first. The race phase span covers queue
// wait plus the race itself; the solve goroutine carries pprof labels
// (endpoint, family) so CPU profiles attribute time to traffic shape, and
// each portfolio member adds its own strategy label on top (see race).
func (s *Server) computeOnPool(p *Prepared, tr *obs.Trace, admit bool) (*entry, error) {
	if admit && s.tier != nil {
		release, err := s.tier.Admit(p)
		if err != nil {
			return nil, err
		}
		defer release()
	}
	deadline := s.cfg.DefaultDeadline
	if p.deadlineMS > 0 {
		deadline = time.Duration(p.deadlineMS) * time.Millisecond
	}
	if deadline > s.cfg.MaxDeadline {
		deadline = s.cfg.MaxDeadline
	}

	tr.BeginPhase(obs.PhaseRace)
	defer tr.EndPhase()

	labels := pprof.Labels("regcoal_endpoint", p.kind.String(), "regcoal_family", traceFamily(tr))
	type computed struct {
		e   *entry
		err error
	}
	ch := make(chan computed, 1)
	job := func() {
		pprof.Do(s.baseCtx, labels, func(context.Context) {
			e, jerr := s.compute(p, deadline, tr)
			ch <- computed{e: e, err: jerr}
		})
	}
	if serr := s.pool.TrySubmit(job); serr != nil {
		if errors.Is(serr, engine.ErrSaturated) {
			s.metrics.Rejected.Add(1)
			return nil, &httpError{status: http.StatusTooManyRequests, msg: "server saturated, retry later"}
		}
		s.metrics.Errors.Add(1)
		return nil, &httpError{status: http.StatusServiceUnavailable, msg: "server shutting down"}
	}
	res := <-ch
	if he := (*httpError)(nil); errors.As(res.err, &he) {
		return nil, he // every member declined: a 400, not a server fault
	}
	if res.err != nil {
		s.metrics.Errors.Add(1)
		return nil, &httpError{status: http.StatusInternalServerError, msg: res.err.Error()}
	}
	return res.e, nil
}

// traceFamily reads the family label off a trace, tolerating nil.
func traceFamily(tr *obs.Trace) string {
	if tr == nil {
		return ""
	}
	return tr.Family
}

// compute runs the portfolio race for the instance under the deadline and
// packages the winner as a canonical-space cache entry. The race context
// descends from the server context, not the client connection, so a
// disconnecting client cannot poison the cache with a truncated answer.
func (s *Server) compute(p *Prepared, deadline time.Duration, tr *obs.Trace) (*entry, error) {
	ctx, cancel := context.WithTimeout(s.baseCtx, deadline)
	defer cancel()
	inst, canon, strategies := p.inst, p.canon, p.strategies
	if p.kind == KindAllocate {
		members, err := allocateRacers(inst, strategies)
		if err != nil {
			return nil, err
		}
		best, winner, _, hit, err := race(ctx, members, cmpAllocate, tr)
		if err != nil {
			return nil, err
		}
		return allocateEntry(canon.Perm, best, winner, hit), nil
	}
	if p.kind == KindSpill {
		members, err := spillRacers(inst, strategies)
		if err != nil {
			return nil, err
		}
		best, winner, _, hit, err := race(ctx, members, cmpSpill, tr)
		if err != nil {
			return nil, err
		}
		return spillEntry(canon.Perm, best, winner, hit), nil
	}
	members, err := coalesceRacers(inst, strategies)
	if err != nil {
		return nil, err
	}
	best, winner, _, hit, err := race(ctx, members, cmpCoalesce, tr)
	if err != nil {
		return nil, err
	}
	return coalesceEntry(inst, canon.Perm, best, winner, hit), nil
}

// noRegisterCount answers a request whose k is set nowhere.
const noRegisterCount = "no register count: set k in the request or the graph payload"

// RoutingHash computes the canonical graph hash of a single-graph
// request — the key a cluster router shards by. It returns "" when the
// request cannot be parsed, carries no register count, or exceeds
// maxVertices (maxVertices <= 0 means no cap): such requests cannot be
// canonicalized, and the router sends them to a deterministic fallback
// shard whose worker reproduces the exact single-node error response.
func RoutingHash(req *Request, maxVertices int) string {
	if req.Graph == nil {
		return ""
	}
	f, err := req.Graph.ToFile(maxVertices)
	if err != nil {
		return ""
	}
	if c := routeForm(f, req.K); c != nil {
		return c.Hash
	}
	return ""
}

// routeForm is the canonical form a router shards an already built graph
// by, under the request's k override, or nil when no register count is
// set.
func routeForm(f *graph.File, reqK int) *graph.Canonical {
	k := f.K
	if reqK > 0 {
		k = reqK
	}
	if k <= 0 {
		return nil
	}
	return graph.CanonicalForm(&graph.File{G: f.G, K: k})
}
