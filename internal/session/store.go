package session

import (
	"bytes"
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"regcoal/internal/graph"
	"regcoal/internal/singleflight"
)

// StoreConfig parameterizes a Store. Zero values take defaults.
type StoreConfig struct {
	// MaxSessions caps the sessions held, live or dormant; creating or
	// receiving one past the cap evicts the least-recently-used session
	// (default 256).
	MaxSessions int
	// TTL expires sessions idle longer than this (default 15 minutes).
	TTL time.Duration
	// Solver bounds each session's incremental machinery.
	Solver SolverConfig
	// Decode reads a logged create request body into its base instance
	// and register count, exactly as the live create read it. Replaying
	// a dormant session's op log runs it; without it the replay fails.
	Decode func(create []byte) (*graph.File, int, error)
	// now overrides the clock in tests.
	now func() time.Time
}

func (c *StoreConfig) fillDefaults() {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
	if c.TTL <= 0 {
		c.TTL = 15 * time.Minute
	}
	c.Solver.fillDefaults()
	if c.now == nil {
		c.now = time.Now
	}
}

// Store holds a node's sessions, one entry per session id under one
// LRU, one TTL and one cap. An entry is live — a Session applying ops
// here — or dormant: an op log a replica received, replayed into a live
// Session on its first use. A session created with its request body
// keeps its op log too, extended by every apply, so a node that
// replicates ships exactly what it applied. The store also mints ids
// and runs the per-session singleflight that collapses concurrent
// duplicates of one versioned delta batch.
//
// Lock order: an entry's mu may be held while taking the store's mu,
// never the reverse.
type Store struct {
	mu      sync.Mutex
	cfg     StoreConfig
	byID    map[string]*list.Element // of *entry
	ll      *list.List               // front = most recently used
	idCtr   uint64
	idSeed  uint64
	flights singleflight.Group
	metrics Metrics
}

// entry is one session id's state. Its mu orders everything that reads
// or changes sess, log and behind — an apply with its log append, a
// received record, a replay — so the log is in apply order by
// construction, and a live entry's log ends at its session's version.
type entry struct {
	id      string
	lastUse time.Time // under Store.mu

	mu     sync.Mutex
	sess   *Session        // nil while dormant
	log    *ExportRecord   // nil when none is kept; replaced, never modified
	behind map[string]bool // peers whose last ship of the log failed
}

// NewStore builds an empty Store.
func NewStore(cfg StoreConfig) *Store {
	cfg.fillDefaults()
	return &Store{
		cfg:    cfg,
		byID:   make(map[string]*list.Element),
		ll:     list.New(),
		idSeed: uint64(time.Now().UnixNano()),
	}
}

// Metrics exposes the session counter set.
func (st *Store) Metrics() *Metrics { return &st.metrics }

// mintID produces a unique session id (splitmix64 over a start-time seed
// and a counter; uniqueness within the store is what matters).
func (st *Store) mintID() string {
	st.idCtr++
	z := st.idSeed + st.idCtr*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return "s-" + strconv.FormatUint(z, 16)
}

// Create builds a session over base instance f (k overrides f.K when
// positive), registers it, and returns it with its initial solve done.
// baseHash is the WL canonical hash of f — the cluster routing key. A
// non-nil body, the verbatim create request, starts the session's op
// log, which is returned (a full record at version 0) for shipping; a
// nil body keeps no log.
func (st *Store) Create(f *graph.File, k int, baseHash string, body []byte) (*Session, *ExportRecord, error) {
	st.mu.Lock()
	id := st.mintID()
	st.mu.Unlock()
	// Build outside the store lock: creation solves the base instance.
	s, err := New(id, f, k, st.cfg.Solver, baseHash, &st.metrics)
	if err != nil {
		return nil, nil, err
	}
	var log *ExportRecord
	if body != nil {
		log = &ExportRecord{SessionID: id, BaseHash: baseHash, Create: bytes.Clone(body)}
	}
	st.mu.Lock()
	st.insertLocked(&entry{id: id, sess: s, log: log})
	st.mu.Unlock()
	st.metrics.Created.Add(1)
	return s, log, nil
}

// Get returns the live session by id, touching its LRU/TTL position; a
// dormant session is replayed first. A missing, evicted, or expired id,
// or one whose op log fails to replay, is a 404 ClientError.
func (st *Store) Get(id string) (*Session, error) {
	e, err := st.lookup(id)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return st.liveLocked(e)
}

// applied is a versioned apply's outcome, shared by every request the
// singleflight collapses onto it.
type applied struct {
	out any
	rec *ExportRecord
}

// Apply routes a delta batch to its session, replaying a dormant one
// first. baseHash, when non-empty, must be the session's (else a 409
// ClientError). When version is non-negative it is an
// optimistic-concurrency guard AND a singleflight key: concurrent
// duplicates of the same (session, base hash, version) batch collapse
// onto one application, and every caller receives the same value from
// render (which runs once, under the session lock) and the same record.
// A negative version applies unconditionally.
//
// When the session keeps an op log, body — the verbatim request — is
// appended to it at the version the apply assigned, in the same
// critical section, and returned as a one-delta suffix for shipping;
// otherwise the record is nil.
func (st *Store) Apply(id, baseHash string, version int64, deltas []Delta, body []byte, render func(*Solve) (any, error)) (any, *ExportRecord, error) {
	e, err := st.lookup(id)
	if err != nil {
		return nil, nil, err
	}
	if version < 0 {
		return st.apply(e, baseHash, version, deltas, body, render)
	}
	v, err, _ := st.flights.Do(id+"|"+baseHash+"|v"+strconv.FormatInt(version, 10), func() (any, error) {
		out, rec, err := st.apply(e, baseHash, version, deltas, body, render)
		return applied{out, rec}, err
	})
	a, _ := v.(applied)
	return a.out, a.rec, err
}

func (st *Store) apply(e *entry, baseHash string, version int64, deltas []Delta, body []byte, render func(*Solve) (any, error)) (any, *ExportRecord, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, err := st.liveLocked(e)
	if err != nil {
		return nil, nil, err
	}
	if baseHash != "" && baseHash != s.BaseHash() {
		st.metrics.Conflicts.Add(1)
		return nil, nil, Errf(http.StatusConflict, "base_hash does not match the session's base graph")
	}
	out, err := s.ApplyRender(version, deltas, render)
	if err != nil || e.log == nil {
		return out, nil, err
	}
	rec := &ExportRecord{SessionID: e.id, BaseHash: s.BaseHash(), Version: e.log.Version + 1, Deltas: []json.RawMessage{body}}
	// A suffix at the log's next version always extends it.
	e.log, _ = e.log.Extend(rec)
	return out, rec, nil
}

// Close removes a session, live or dormant — a dormant one without
// replaying it. Unknown ids are a 404 ClientError. When the session kept
// an op log, the returned record is its close, for shipping.
func (st *Store) Close(id string) (*ExportRecord, error) {
	st.mu.Lock()
	el, ok := st.byID[id]
	if ok {
		st.removeLocked(el)
	}
	st.mu.Unlock()
	if !ok {
		return nil, errUnknown(id)
	}
	st.metrics.Closed.Add(1)
	e := el.Value.(*entry)
	e.mu.Lock()
	defer e.mu.Unlock()
	log := e.log
	// A request that found the entry before the close answers 404.
	e.sess, e.log = nil, nil
	if log == nil {
		return nil, nil
	}
	return &ExportRecord{SessionID: id, BaseHash: log.BaseHash, Closed: true}, nil
}

// Receive applies a shipped record — a full log, a suffix or a close —
// to the log held for its session by ExportRecord.Extend, under the
// entry's lock, and returns the version held afterwards (-1: none). A
// full log for an unknown id becomes a dormant entry; a close drops the
// entry; a gap is a 409 ClientError and the log stands. A record that
// advances the log of a live entry retires its solver state: the entry
// goes dormant and replays the newer log on first use, so a node that
// lost a session's ops to another owner stops answering from its stale
// copy once the newer log reaches it.
func (st *Store) Receive(rec *ExportRecord) (int64, error) {
	st.mu.Lock()
	e := st.lookupLocked(rec.SessionID)
	if e == nil {
		defer st.mu.Unlock()
		log, err := (*ExportRecord)(nil).Extend(rec)
		if log == nil { // a gap, or a close of no log
			return -1, err
		}
		st.insertLocked(&entry{id: rec.SessionID, log: log})
		return log.Version, nil
	}
	st.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	next, err := e.log.Extend(rec)
	switch {
	case err != nil:
	case next == nil:
		e.sess, e.log = nil, nil
		st.drop(e)
	case next != e.log:
		e.sess, e.log = nil, next
	}
	if e.log == nil {
		return -1, err
	}
	return e.log.Version, err
}

// Log returns the op log held for id, or nil, without touching its
// LRU/TTL position.
func (st *Store) Log(id string) *ExportRecord {
	e := st.peek(id)
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.log
}

// Logs returns every op log held, live or dormant, without touching
// LRU order — the handoff engine's enumeration on a topology change.
func (st *Store) Logs() []*ExportRecord {
	var out []*ExportRecord
	for _, e := range st.entries() {
		e.mu.Lock()
		if e.log != nil {
			out = append(out, e.log)
		}
		e.mu.Unlock()
	}
	return out
}

// SetBehind records whether the last ship of id's op log to peer
// failed; a session not held here is not tracked.
func (st *Store) SetBehind(id, peer string, behind bool) {
	e := st.peek(id)
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case !behind:
		delete(e.behind, peer)
	case e.behind == nil:
		e.behind = map[string]bool{peer: true}
	default:
		e.behind[peer] = true
	}
}

// ReplicaLag counts, per peer, the sessions held whose last ship to
// that peer failed.
func (st *Store) ReplicaLag() map[string]int64 {
	lag := map[string]int64{}
	for _, e := range st.entries() {
		e.mu.Lock()
		for peer := range e.behind {
			lag[peer]++
		}
		e.mu.Unlock()
	}
	return lag
}

// liveLocked returns e's session, replaying a dormant entry's log into
// one. A log that fails to replay is dropped with its entry. Caller
// holds e.mu.
func (st *Store) liveLocked(e *entry) (*Session, error) {
	if e.sess != nil {
		return e.sess, nil
	}
	if e.log == nil { // closed or dropped while this request waited
		return nil, errUnknown(e.id)
	}
	s, err := st.replay(e.log)
	if err != nil {
		e.log = nil
		st.drop(e)
		return nil, Errf(http.StatusNotFound, "unknown session %q (its op log failed to replay: %v)", e.id, err)
	}
	e.sess = s
	return s, nil
}

// discard is the render of a replayed batch: nobody reads it.
func discard(*Solve) (any, error) { return nil, nil }

// replay rebuilds a session from its full op log, counting the outcome:
// the create body through the configured decoder, then each delta body
// applied in order, at the version it named when it was applied live.
// The engine is deterministic, so the state rebuilt is the one the log
// recorded; a replay that ends anywhere but the log's version diverged.
func (st *Store) replay(rec *ExportRecord) (*Session, error) {
	s, err := st.rebuild(rec)
	switch {
	case err != nil:
		st.metrics.RebuildFailures.Add(1)
		return nil, err
	case s.Version() != rec.Version:
		st.metrics.RebuildDivergence.Add(1)
		return nil, fmt.Errorf("replay ended at version %d, the log at %d", s.Version(), rec.Version)
	}
	st.metrics.Rebuilds.Add(1)
	return s, nil
}

func (st *Store) rebuild(rec *ExportRecord) (*Session, error) {
	if st.cfg.Decode == nil {
		return nil, errors.New("no create decoder")
	}
	f, k, err := st.cfg.Decode(rec.Create)
	if err != nil {
		return nil, fmt.Errorf("create: %w", err)
	}
	baseHash := rec.BaseHash
	if baseHash == "" {
		baseHash = graph.CanonicalForm(&graph.File{G: f.G, K: k}).Hash
	}
	s, err := New(rec.SessionID, f, k, st.cfg.Solver, baseHash, &st.metrics)
	if err != nil {
		return nil, fmt.Errorf("create: %w", err)
	}
	for i, body := range rec.Deltas {
		var d struct {
			Version *int64  `json:"version"`
			Deltas  []Delta `json:"deltas"`
		}
		if err := json.Unmarshal(body, &d); err != nil {
			return nil, fmt.Errorf("decoding delta %d: %w", i, err)
		}
		version := int64(-1)
		if d.Version != nil {
			version = *d.Version
		}
		if _, err := s.ApplyRender(version, d.Deltas, discard); err != nil {
			return nil, fmt.Errorf("applying delta %d: %w", i, err)
		}
	}
	return s, nil
}

func errUnknown(id string) error {
	return Errf(http.StatusNotFound, "unknown session %q (never created, expired, or evicted)", id)
}

// lookup returns id's entry, touching its LRU/TTL position; a missing
// id is a 404 ClientError.
func (st *Store) lookup(id string) (*entry, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e := st.lookupLocked(id); e != nil {
		return e, nil
	}
	return nil, errUnknown(id)
}

// lookupLocked expires idle entries, then returns id's entry, touching
// its LRU/TTL position, or nil. Caller holds st.mu.
func (st *Store) lookupLocked(id string) *entry {
	now := st.cfg.now()
	st.expireLocked(now)
	el, ok := st.byID[id]
	if !ok {
		return nil
	}
	e := el.Value.(*entry)
	e.lastUse = now
	st.ll.MoveToFront(el)
	return e
}

// peek returns id's entry, or nil, leaving its LRU/TTL position alone.
func (st *Store) peek(id string) *entry {
	st.mu.Lock()
	defer st.mu.Unlock()
	if el, ok := st.byID[id]; ok {
		return el.Value.(*entry)
	}
	return nil
}

// entries snapshots the held entries, front (most recently used) first.
func (st *Store) entries() []*entry {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]*entry, 0, st.ll.Len())
	for el := st.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry))
	}
	return out
}

// insertLocked registers e as the most recently used entry, replacing
// any entry under its id, and evicts past the cap. Caller holds st.mu.
func (st *Store) insertLocked(e *entry) {
	now := st.cfg.now()
	st.expireLocked(now)
	if el, ok := st.byID[e.id]; ok {
		st.removeLocked(el)
	}
	e.lastUse = now
	st.byID[e.id] = st.ll.PushFront(e)
	for st.ll.Len() > st.cfg.MaxSessions {
		st.removeLocked(st.ll.Back())
		st.metrics.Evicted.Add(1)
	}
	st.metrics.Active.Store(int64(st.ll.Len()))
}

// drop removes e if it is still the entry held under its id.
func (st *Store) drop(e *entry) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if el, ok := st.byID[e.id]; ok && el.Value.(*entry) == e {
		st.removeLocked(el)
	}
}

// expireLocked drops entries idle past the TTL. Caller holds st.mu.
func (st *Store) expireLocked(now time.Time) {
	for el := st.ll.Back(); el != nil && now.Sub(el.Value.(*entry).lastUse) > st.cfg.TTL; el = st.ll.Back() {
		st.removeLocked(el)
		st.metrics.Expired.Add(1)
	}
}

func (st *Store) removeLocked(el *list.Element) {
	delete(st.byID, el.Value.(*entry).id)
	st.ll.Remove(el)
	st.metrics.Active.Store(int64(st.ll.Len()))
}
