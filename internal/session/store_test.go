package session

// Unit tests for the store's op-log paths: one entry per session id,
// holding a live session with its log or a replica's dormant log, under
// one LRU and one TTL. A stub decoder stands in for the service's
// request decoder: the create body {"k":K} names base4 at k = K.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"regcoal/internal/graph"
)

// stubStore builds a store whose decoder reads {"k":K} as base4.
func stubStore(t *testing.T, cfg StoreConfig) *Store {
	t.Helper()
	cfg.Decode = func(create []byte) (*graph.File, int, error) {
		var c struct {
			K int `json:"k"`
		}
		if err := json.Unmarshal(create, &c); err != nil || c.K <= 0 {
			return nil, 0, errors.New("stub: no register count")
		}
		return base4(t), c.K, nil
	}
	return NewStore(cfg)
}

// deltaBody is a delta request body as the service logs it; version < 0
// leaves the version out.
func deltaBody(t *testing.T, version int64, deltas ...Delta) json.RawMessage {
	t.Helper()
	req := struct {
		Version *int64  `json:"version,omitempty"`
		Deltas  []Delta `json:"deltas"`
	}{Deltas: deltas}
	if version >= 0 {
		req.Version = &version
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

var (
	create3   = json.RawMessage(`{"k":3}`)
	addVertex = Delta{Op: OpAddVertex}
)

// wantStatus fails unless err is a ClientError with the given status.
func wantStatus(t *testing.T, what string, err error, status int) {
	t.Helper()
	var ce *ClientError
	if !errors.As(err, &ce) || ce.Status != status {
		t.Fatalf("%s: want a %d ClientError, got %v", what, status, err)
	}
}

func TestStoreReceive(t *testing.T) {
	st := stubStore(t, StoreConfig{})
	full := &ExportRecord{SessionID: "s-1", BaseHash: "h", Version: 1, Create: create3,
		Deltas: []json.RawMessage{deltaBody(t, 0, addVertex)}}
	if have, err := st.Receive(full); err != nil || have != 1 {
		t.Fatalf("full log for an unknown id: have %d, %v", have, err)
	}
	if st.Metrics().Active.Load() != 1 || st.Metrics().Rebuilds.Load() != 0 {
		t.Fatalf("a received log is held dormant: len %d, rebuilds %d", st.Metrics().Active.Load(), st.Metrics().Rebuilds.Load())
	}
	suffix := &ExportRecord{SessionID: "s-1", BaseHash: "h", Version: 2,
		Deltas: []json.RawMessage{deltaBody(t, 1, addVertex)}}
	if have, err := st.Receive(suffix); err != nil || have != 2 {
		t.Fatalf("suffix: have %d, %v", have, err)
	}
	for _, dup := range []*ExportRecord{suffix, full} {
		if have, err := st.Receive(dup); err != nil || have != 2 {
			t.Fatalf("duplicate at version %d: have %d, %v", dup.Version, have, err)
		}
	}
	gap := &ExportRecord{SessionID: "s-1", BaseHash: "h", Version: 5,
		Deltas: []json.RawMessage{deltaBody(t, 4, addVertex)}}
	have, err := st.Receive(gap)
	wantStatus(t, "gap", err, http.StatusConflict)
	if have != 2 || st.Log("s-1").Version != 2 {
		t.Fatalf("after a gap: have %d, log at %d, want 2", have, st.Log("s-1").Version)
	}
	have, err = st.Receive(&ExportRecord{SessionID: "s-2", BaseHash: "h", Version: 1,
		Deltas: []json.RawMessage{deltaBody(t, 0, addVertex)}})
	wantStatus(t, "suffix without a log", err, http.StatusConflict)
	if have != -1 || st.Metrics().Active.Load() != 1 {
		t.Fatalf("a refused suffix for an unknown id: have %d, len %d", have, st.Metrics().Active.Load())
	}

	// First use replays the dormant log, once.
	s, err := st.Get("s-1")
	if err != nil {
		t.Fatalf("first use: %v", err)
	}
	if next, _, _ := s.Shape(); s.Version() != 2 || next != 6 || s.BaseHash() != "h" {
		t.Fatalf("replayed session at version %d with %d ids, base %q", s.Version(), next, s.BaseHash())
	}
	if again, err := st.Get("s-1"); err != nil || again != s || st.Metrics().Rebuilds.Load() != 1 {
		t.Fatalf("second use: %v, same session %v, rebuilds %d", err, again == s, st.Metrics().Rebuilds.Load())
	}

	for _, id := range []string{"s-1", "s-2"} {
		if have, err := st.Receive(&ExportRecord{SessionID: id, Closed: true}); err != nil || have != -1 {
			t.Fatalf("close of %s: have %d, %v", id, have, err)
		}
	}
	if _, err := st.Get("s-1"); err == nil || st.Metrics().Active.Load() != 0 {
		t.Fatalf("closed session still held: len %d", st.Metrics().Active.Load())
	}
}

// A record that advances a live session's log means another node
// applied the newer ops: the live copy retires, and the next use replays
// the newer log instead of answering from the stale state.
func TestStoreRetireOnAdvance(t *testing.T) {
	st := stubStore(t, StoreConfig{})
	live, rec, err := st.Create(base4(t), 3, "h", create3)
	if err != nil || rec == nil || rec.Version != 0 {
		t.Fatalf("create: %+v, %v", rec, err)
	}
	id := live.ID()
	d0 := deltaBody(t, 0, addVertex)
	if _, rec, err = st.Apply(id, "h", 0, []Delta{addVertex}, d0, discard); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if rec.Version != 1 || len(rec.Deltas) != 1 || !bytes.Equal(rec.Deltas[0], d0) {
		t.Fatalf("apply returned %+v, want the one-delta suffix at version 1", rec)
	}
	// A duplicate of what this node applied leaves the live copy alone.
	if _, err := st.Receive(rec); err != nil {
		t.Fatal(err)
	}
	if s, err := st.Get(id); err != nil || s != live {
		t.Fatalf("a duplicate retired the live session: %v", err)
	}

	advance := &ExportRecord{SessionID: id, BaseHash: "h", Version: 2,
		Deltas: []json.RawMessage{deltaBody(t, 1, Delta{Op: OpAddEdge, U: 1, V: 3})}}
	if have, err := st.Receive(advance); err != nil || have != 2 {
		t.Fatalf("advancing suffix: have %d, %v", have, err)
	}
	s, err := st.Get(id)
	if err != nil {
		t.Fatalf("use after retire: %v", err)
	}
	if s == live || s.Version() != 2 || live.Version() != 1 || st.Metrics().Rebuilds.Load() != 1 {
		t.Fatalf("retire: new session %v at %d, old at %d, rebuilds %d",
			s != live, s.Version(), live.Version(), st.Metrics().Rebuilds.Load())
	}
	// The replayed copy keeps extending the log the newer owner shipped.
	if _, rec, err = st.Apply(id, "", 2, []Delta{addVertex}, deltaBody(t, 2, addVertex), discard); err != nil || rec.Version != 3 {
		t.Fatalf("apply after replay: %+v, %v", rec, err)
	}
	if log := st.Log(id); log.Version != 3 || len(log.Deltas) != 3 || log.Validate() != nil {
		t.Fatalf("log after replay and apply: %+v", log)
	}
}

// A log that cannot be replayed is dropped with its entry and counted,
// and the request that found it answers 404 with the reason.
func TestStoreReplayFailureDropsEntry(t *testing.T) {
	st := stubStore(t, StoreConfig{})
	for _, tc := range []struct {
		rec        *ExportRecord
		why        string
		divergence bool
	}{
		{&ExportRecord{SessionID: "s-decode", BaseHash: "h", Create: json.RawMessage(`{"k":0}`)}, "stub: no register count", false},
		{&ExportRecord{SessionID: "s-apply", BaseHash: "h", Version: 1, Create: create3,
			Deltas: []json.RawMessage{deltaBody(t, 0, Delta{Op: OpRemoveVertex, U: 99})}}, "applying delta 0", false},
		{&ExportRecord{SessionID: "s-version", BaseHash: "h", Version: 1, Create: create3,
			Deltas: []json.RawMessage{deltaBody(t, 3, addVertex)}}, "version conflict", false},
		{&ExportRecord{SessionID: "s-json", BaseHash: "h", Version: 1, Create: create3,
			Deltas: []json.RawMessage{json.RawMessage(`{"deltas":7}`)}}, "decoding delta 0", false},
		// Receive trusts its caller to validate: a full log whose version
		// disagrees with its deltas replays to the wrong version.
		{&ExportRecord{SessionID: "s-diverge", BaseHash: "h", Version: 3, Create: create3,
			Deltas: []json.RawMessage{deltaBody(t, -1, addVertex)}}, "replay ended at version 1, the log at 3", true},
	} {
		m := st.Metrics()
		failures, divergence := m.RebuildFailures.Load(), m.RebuildDivergence.Load()
		if _, err := st.Receive(tc.rec); err != nil {
			t.Fatal(err)
		}
		_, err := st.Get(tc.rec.SessionID)
		wantStatus(t, tc.rec.SessionID, err, http.StatusNotFound)
		if !strings.Contains(err.Error(), "its op log failed to replay") || !strings.Contains(err.Error(), tc.why) {
			t.Fatalf("%s: error %q does not give the reason %q", tc.rec.SessionID, err, tc.why)
		}
		if tc.divergence {
			divergence++
		} else {
			failures++
		}
		if m.RebuildFailures.Load() != failures || m.RebuildDivergence.Load() != divergence {
			t.Fatalf("%s: failures %d divergence %d, want %d and %d", tc.rec.SessionID,
				m.RebuildFailures.Load(), m.RebuildDivergence.Load(), failures, divergence)
		}
		if st.Metrics().Active.Load() != 0 || st.Log(tc.rec.SessionID) != nil {
			t.Fatalf("%s: the failed log is still held", tc.rec.SessionID)
		}
		if _, _, err := st.Apply(tc.rec.SessionID, "", -1, []Delta{addVertex}, nil, discard); err == nil {
			t.Fatalf("%s: applied after the replay failed", tc.rec.SessionID)
		}
	}
	if st.Metrics().Rebuilds.Load() != 0 {
		t.Fatalf("rebuilds %d after failures only", st.Metrics().Rebuilds.Load())
	}

	// Without a decoder no log can replay.
	bare := NewStore(StoreConfig{})
	if _, err := bare.Receive(&ExportRecord{SessionID: "s-1", BaseHash: "h", Create: create3}); err != nil {
		t.Fatal(err)
	}
	if _, err := bare.Get("s-1"); err == nil || bare.Metrics().RebuildFailures.Load() != 1 {
		t.Fatalf("replay without a decoder: %v", err)
	}
}

// Dormant entries share the live sessions' LRU cap and TTL.
func TestStoreDormantLRUAndTTL(t *testing.T) {
	now := time.Unix(1000, 0)
	st := stubStore(t, StoreConfig{MaxSessions: 2, TTL: time.Minute, now: func() time.Time { return now }})
	for _, id := range []string{"s-a", "s-b"} {
		if _, err := st.Receive(&ExportRecord{SessionID: id, BaseHash: "h", Create: create3}); err != nil {
			t.Fatal(err)
		}
	}
	// A record for s-a touches it, so s-b is least recently used.
	now = now.Add(30 * time.Second)
	if _, err := st.Receive(&ExportRecord{SessionID: "s-a", BaseHash: "h", Version: 1,
		Deltas: []json.RawMessage{deltaBody(t, 0, addVertex)}}); err != nil {
		t.Fatal(err)
	}
	live, _, err := st.Create(base4(t), 0, "h", nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Log("s-b") != nil || st.Log("s-a") == nil || st.Metrics().Evicted.Load() != 1 {
		t.Fatalf("LRU over dormant entries: s-b held %v, s-a held %v, evicted %d",
			st.Log("s-b") != nil, st.Log("s-a") != nil, st.Metrics().Evicted.Load())
	}
	if got := st.Metrics().Active.Load(); got != 2 {
		t.Fatalf("active %d, want 2 (one live, one dormant)", got)
	}
	// 31s after the touch s-a is within the TTL and the live session too.
	now = now.Add(31 * time.Second)
	if _, err := st.Get(live.ID()); err != nil {
		t.Fatalf("live session inside the TTL: %v", err)
	}
	now = now.Add(45 * time.Second)
	if _, err := st.Get("s-a"); err == nil {
		t.Fatal("dormant s-a outlived the TTL")
	}
	if st.Metrics().Active.Load() != 1 || st.Metrics().Expired.Load() != 1 || st.Metrics().Rebuilds.Load() != 0 {
		t.Fatalf("after expiry: len %d expired %d rebuilds %d", st.Metrics().Active.Load(), st.Metrics().Expired.Load(), st.Metrics().Rebuilds.Load())
	}
}

// A log handed out — by Create, Apply, Log or Logs — never changes
// afterwards, and shares no bytes with the request bodies it recorded.
func TestStoreLogHandedOutNeverChanges(t *testing.T) {
	st := stubStore(t, StoreConfig{})
	body := []byte(`{"k":3}`)
	s, created, err := st.Create(base4(t), 3, "h", body)
	if err != nil {
		t.Fatal(err)
	}
	body[1] = 'X'
	d0 := deltaBody(t, -1, addVertex)
	_, suffix, err := st.Apply(s.ID(), "", -1, []Delta{addVertex}, d0, discard)
	if err != nil {
		t.Fatal(err)
	}
	d0[1] = 'X'
	held := st.Log(s.ID())
	enumerated := st.Logs()
	if _, _, err := st.Apply(s.ID(), "", 1, []Delta{addVertex}, deltaBody(t, 1, addVertex), discard); err != nil {
		t.Fatal(err)
	}
	if created.Version != 0 || len(created.Deltas) != 0 || string(created.Create) != `{"k":3}` {
		t.Fatalf("create record changed: %+v", created)
	}
	if suffix.Version != 1 || len(suffix.Deltas) != 1 {
		t.Fatalf("suffix changed: %+v", suffix)
	}
	for _, log := range []*ExportRecord{held, enumerated[0]} {
		if log.Version != 1 || len(log.Deltas) != 1 || string(log.Create) != `{"k":3}` || log.Deltas[0][1] == 'X' {
			t.Fatalf("handed-out log changed: %+v", log)
		}
	}
	if log := st.Log(s.ID()); log.Version != 2 || len(log.Deltas) != 2 || log.Validate() != nil {
		t.Fatalf("current log %+v", log)
	}
}

// Close drops a dormant session without replaying it, and returns the
// close record only when a log was kept.
func TestStoreCloseDormantWithoutReplay(t *testing.T) {
	st := stubStore(t, StoreConfig{})
	if _, err := st.Receive(&ExportRecord{SessionID: "s-1", BaseHash: "h", Create: create3}); err != nil {
		t.Fatal(err)
	}
	rec, err := st.Close("s-1")
	if err != nil || rec == nil || !rec.Closed || rec.SessionID != "s-1" || rec.BaseHash != "h" {
		t.Fatalf("close of a dormant session: %+v, %v", rec, err)
	}
	if st.Metrics().Rebuilds.Load() != 0 || st.Metrics().Active.Load() != 0 {
		t.Fatalf("close replayed (%d) or kept (%d) the session", st.Metrics().Rebuilds.Load(), st.Metrics().Active.Load())
	}
	s, _, err := st.Create(base4(t), 0, "h", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := st.Close(s.ID()); err != nil || rec != nil {
		t.Fatalf("close of an unlogged session: %+v, %v", rec, err)
	}
	_, err = st.Close(s.ID())
	wantStatus(t, "second close", err, http.StatusNotFound)
}

// Concurrent unversioned batches are logged in the order they were
// applied: replaying the log reaches the live session's state, which is
// the weight of the last batch logged.
func TestStoreApplyLogsInApplyOrder(t *testing.T) {
	st := stubStore(t, StoreConfig{})
	s, _, err := st.Create(base4(t), 3, "h", create3)
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	var wg sync.WaitGroup
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := Delta{Op: OpReweightAffinity, U: 1, V: 3, Weight: int64(i)}
			if _, _, err := st.Apply(s.ID(), "h", -1, []Delta{d}, deltaBody(t, -1, d), discard); err != nil {
				t.Errorf("apply %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	log := st.Log(s.ID())
	if log.Version != n || log.Validate() != nil {
		t.Fatalf("log after %d concurrent applies: %+v", n, log)
	}
	var last struct{ Deltas []Delta }
	if err := json.Unmarshal(log.Deltas[n-1], &last); err != nil {
		t.Fatal(err)
	}
	weight := s.Current().CoalescedWeight
	if weight != last.Deltas[0].Weight {
		t.Fatalf("live weight %d, last logged weight %d", weight, last.Deltas[0].Weight)
	}
	replica := stubStore(t, StoreConfig{})
	if _, err := replica.Receive(log); err != nil {
		t.Fatal(err)
	}
	r, err := replica.Get(s.ID())
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Current().CoalescedWeight; got != weight || r.Version() != n {
		t.Fatalf("replay reached weight %d at version %d, the live session %d at %d", got, r.Version(), weight, n)
	}
}

// Concurrent duplicates of one versioned batch collapse onto one apply,
// which is logged once; every caller gets the same answer and record. A
// wrong base hash is a 409 that logs nothing.
func TestStoreVersionedCollapseLogsOnce(t *testing.T) {
	st := stubStore(t, StoreConfig{})
	s, _, err := st.Create(base4(t), 3, "h", create3)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = st.Apply(s.ID(), "other", 0, []Delta{addVertex}, deltaBody(t, 0, addVertex), discard)
	wantStatus(t, "wrong base hash", err, http.StatusConflict)
	if st.Metrics().Conflicts.Load() != 1 || st.Log(s.ID()).Version != 0 {
		t.Fatalf("wrong base hash: conflicts %d, log at %d", st.Metrics().Conflicts.Load(), st.Log(s.ID()).Version)
	}

	// Hold the session so the leader's apply waits until every duplicate
	// has joined its flight.
	const n = 8
	held, release := make(chan struct{}), make(chan struct{})
	go s.View(func(*Solve) { close(held); <-release })
	<-held
	type result struct {
		out any
		rec *ExportRecord
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, rec, err := st.Apply(s.ID(), "h", 0, []Delta{addVertex}, deltaBody(t, 0, addVertex), func(sol *Solve) (any, error) {
				return sol.Version, nil
			})
			if err != nil {
				t.Errorf("duplicate %d: %v", i, err)
			}
			results[i] = result{out, rec}
		}()
	}
	for st.flights.Waiters(s.ID()+"|h|v0") < n-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	for i, r := range results {
		if r.out != int64(1) || r.rec != results[0].rec {
			t.Fatalf("duplicate %d: answer %v, record %p, want 1 and %p", i, r.out, r.rec, results[0].rec)
		}
	}
	if st.Metrics().Applies.Load() != 1 {
		t.Fatalf("%d applies for %d duplicates", st.Metrics().Applies.Load(), n)
	}
	if log := st.Log(s.ID()); log.Version != 1 || len(log.Deltas) != 1 {
		t.Fatalf("log after the collapse: %+v", log)
	}
}

// Handlers collapsed onto one apply, peer ships and the lag gauge all
// reach one session's log at once. Every goroutine offers every version
// in order, so each offer is a duplicate or the next version: the log
// must end as one contiguous full log, whatever the interleaving.
func TestSessionLogsConcurrentExtend(t *testing.T) {
	const versions = 32
	st := NewStore(StoreConfig{MaxSessions: 4})
	if _, err := st.Receive(&ExportRecord{SessionID: "s", BaseHash: "h", Create: json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			peer := fmt.Sprintf("p%d", g%2)
			for v := int64(1); v <= versions; v++ {
				rec := &ExportRecord{SessionID: "s", BaseHash: "h", Version: v,
					Deltas: []json.RawMessage{json.RawMessage(fmt.Sprintf(`{"v":%d}`, v))}}
				if _, err := st.Receive(rec); err != nil {
					t.Errorf("offer of version %d: %v", v, err)
					return
				}
				st.SetBehind("s", peer, v%2 == 0)
				st.Logs()
				st.ReplicaLag()
			}
		}()
	}
	wg.Wait()
	rec := st.Log("s")
	if rec == nil || rec.Version != versions || rec.Validate() != nil {
		t.Fatalf("log after the race: %+v", rec)
	}
	for i, d := range rec.Deltas {
		if want := fmt.Sprintf(`{"v":%d}`, i+1); string(d) != want {
			t.Fatalf("delta %d is %s, want %s", i, d, want)
		}
	}
	st.SetBehind("s", "p0", false)
	st.SetBehind("s", "p1", true)
	st.SetBehind("gone", "p0", true) // not held: not tracked
	if lag := st.ReplicaLag(); len(lag) != 1 || lag["p1"] != 1 {
		t.Fatalf("replica lag %v, want only p1 behind, on one session", lag)
	}
}
