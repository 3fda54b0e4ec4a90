package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"regcoal/internal/obs"
	"regcoal/internal/session"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func post(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// The canonical coalescable instance: path a-b-c, move (a,c), k=2.
const pathInstance = `{"graph":{"text":"k 2\nnode a\nnode b\nnode c\nedge a b\nedge b c\nmove a c 5\n"}}`

func TestCoalesceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/coalesce", pathInstance)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out CoalesceResult
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.CoalescedWeight != 5 || !out.Colorable {
		t.Fatalf("got %+v, want the move coalesced", out)
	}
	if len(out.Classes) != 2 {
		t.Fatalf("classes %v, want a and c merged", out.Classes)
	}
	if out.Coloring == nil {
		t.Fatal("colorable result carries no coloring")
	}
	if out.Coloring[0] != out.Coloring[2] || out.Coloring[0] == out.Coloring[1] {
		t.Fatalf("coloring %v does not realize the coalescing", out.Coloring)
	}
}

func TestAllocateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/allocate", pathInstance)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out AllocateResult
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Spills != 0 || len(out.Coloring) != 3 {
		t.Fatalf("got %+v", out)
	}
	if out.Coloring[0] == out.Coloring[1] || out.Coloring[1] == out.Coloring[2] {
		t.Fatalf("improper coloring %v", out.Coloring)
	}
}

func TestRepeatedRequestIsCachedByteIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp1, body1 := post(t, ts.URL+"/v1/coalesce", pathInstance)
	if got := resp1.Header.Get("X-Regcoal-Cache"); got != "miss" {
		t.Fatalf("first request cache header %q, want miss", got)
	}
	hitsBefore := s.Metrics().CacheHits.Load()
	resp2, body2 := post(t, ts.URL+"/v1/coalesce", pathInstance)
	if got := resp2.Header.Get("X-Regcoal-Cache"); got != "hit" {
		t.Fatalf("repeat cache header %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("repeat body differs:\n%s\n%s", body1, body2)
	}
	if s.Metrics().CacheHits.Load() != hitsBefore+1 {
		t.Fatal("cache hit counter did not increment")
	}
}

// gatedTier is a Tier whose first Fill blocks until released, so that
// request can miss the cache and then reach the singleflight after an
// identical request's flight has ended.
type gatedTier struct {
	fills    atomic.Int32
	entered  chan struct{}
	release  chan struct{}
	once     sync.Once
	computed atomic.Int32
}

// open releases the blocked Fill; it is safe to call more than once.
func (g *gatedTier) open() { g.once.Do(func() { close(g.release) }) }

func (g *gatedTier) Fill(*Prepared, *obs.Trace) bool {
	if g.fills.Add(1) == 1 {
		close(g.entered)
		<-g.release
	}
	return false
}
func (g *gatedTier) Computed(*Prepared, *obs.Trace)      { g.computed.Add(1) }
func (g *gatedTier) SessionLogged(*session.ExportRecord) {}

// A request whose lookup and fill miss, but whose singleflight starts
// after an identical request's flight has cached the answer, answers
// from the cache: a hit, with no second race, strategy win or Computed
// push.
func TestFlightAfterFinishedFlightAnswersFromCache(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	tier := &gatedTier{entered: make(chan struct{}), release: make(chan struct{})}
	s.SetTier(tier)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		tier.open() // a failed check must not leave a handler blocked
		ts.Close()
		s.Close()
	})

	type answer struct {
		cache string
		body  []byte
	}
	late := make(chan answer, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/coalesce", "application/json", strings.NewReader(pathInstance))
		if err != nil {
			t.Error(err)
			late <- answer{}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Error(err)
		}
		late <- answer{resp.Header.Get("X-Regcoal-Cache"), body}
	}()
	<-tier.entered // the late request missed the cache and is in Fill
	resp, first := post(t, ts.URL+"/v1/coalesce", pathInstance)
	tier.open()
	if got := resp.Header.Get("X-Regcoal-Cache"); got != "miss" {
		t.Fatalf("first request cache header %q, want miss", got)
	}
	a := <-late
	if a.cache != "hit" {
		t.Fatalf("late request cache header %q, want hit", a.cache)
	}
	if !bytes.Equal(a.body, first) {
		t.Fatalf("late body differs:\n%s\n%s", a.body, first)
	}
	st := s.Registry().Snapshot()
	wins := int64(0)
	for _, n := range st.Labels("strategy_wins") {
		wins += n
	}
	if wins != 1 || tier.computed.Load() != 1 {
		t.Fatalf("%d races won and %d Computed calls for one instance, want 1 and 1", wins, tier.computed.Load())
	}
	if h, m := st.Int("cache_hits"), st.Int("cache_misses"); h != 1 || m != 1 {
		t.Fatalf("cache hits %d, misses %d; want 1 and 1", h, m)
	}
}

func TestIsomorphicRelabelingHitsCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// The same path instance with vertices declared in a different order
	// and different names: an isomorphic relabeling the refinement can
	// identify (the middle vertex has degree 2, the ends degree 1... and
	// the ends are distinguished by the move endpoints' weights equally,
	// but tie-broken consistently because they are automorphic).
	relabeled := `{"graph":{"text":"k 2\nnode mid\nnode left\nnode right\nedge left mid\nedge mid right\nmove left right 5\n"}}`
	post(t, ts.URL+"/v1/coalesce", pathInstance)
	resp, body := post(t, ts.URL+"/v1/coalesce", relabeled)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Regcoal-Cache"); got != "hit" {
		t.Fatalf("relabeled instance cache header %q, want hit", got)
	}
	var out CoalesceResult
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	// In the relabeled numbering, vertices 1 (left) and 2 (right) merge.
	if out.CoalescedWeight != 5 {
		t.Fatalf("relabeled answer %+v", out)
	}
	found := false
	for _, cls := range out.Classes {
		if len(cls) == 2 && cls[0] == 1 && cls[1] == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("classes %v, want {1,2} merged in the relabeled numbering", out.Classes)
	}
	if s.Metrics().CacheHits.Load() == 0 {
		t.Fatal("no cache hit recorded")
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := map[string]string{
		"missing graph":    `{}`,
		"no k":             `{"graph":{"text":"node a\nnode b\nedge a b\n"}}`,
		"unknown strategy": `{"graph":{"text":"k 2\nnode a\n"},"strategies":["nope"]}`,
		"bad payload":      `{"graph":{"text":"wat 1 2\n"}}`,
		"two encodings":    `{"graph":{"text":"k 2\nnode a\n","dimacs":"p edge 1 0\n"}}`,
		"legacy batch":     `{"batch":[{}]}`,
		"unknown field":    `{"graf":{}}`,
	}
	for name, body := range cases {
		resp, out := post(t, ts.URL+"/v1/coalesce", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, out)
		}
	}
	// /v1/batch is the only batch surface: a graph beside the items and a
	// batch nested in an item are both unknown fields.
	for name, body := range map[string]string{
		"graph and batch": `{"graph":{"text":"k 2\nnode a\n"},"items":[{}]}`,
		"nested batch":    `{"items":[{"batch":[{}]}]}`,
	} {
		resp, out := post(t, ts.URL+"/v1/batch", body)
		if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(out, []byte("unknown field")) {
			t.Errorf("%s: status %d (%s), want an unknown-field 400", name, resp.StatusCode, out)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/coalesce")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on solve endpoint: %d, want 405", resp.StatusCode)
	}
}

func TestBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := fmt.Sprintf(`{"items":[%s,{"graph":{"text":"k 1\nnode a\n"}},{"graph":{"text":"edge a a\n"}}]}`,
		pathInstance)
	resp, out := post(t, ts.URL+"/v1/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	var batch BatchResponse
	if err := json.Unmarshal(out, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(batch.Results))
	}
	if batch.Results[0].Coalesce == nil || batch.Results[0].Coalesce.CoalescedWeight != 5 {
		t.Errorf("result 0: %+v", batch.Results[0])
	}
	if batch.Results[1].Coalesce == nil {
		t.Errorf("result 1: %+v", batch.Results[1])
	}
	if batch.Results[2].Error == "" {
		t.Errorf("result 2 should carry the self-loop error, got %+v", batch.Results[2])
	}
}

func TestBatchSizeLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 2})
	body := fmt.Sprintf(`{"items":[%s,%s,%s]}`, pathInstance, pathInstance, pathInstance)
	resp, out := post(t, ts.URL+"/v1/batch", body)
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(out, []byte("limit 2")) {
		t.Fatalf("oversized batch: %d %s", resp.StatusCode, out)
	}
}

func TestMixedEncodingsRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"graph":{"dimacs":"p edge 2 1\nc regcoal k 2\ne 1 2\n","precolored":[{"v":0,"color":1}]}}`
	resp, out := post(t, ts.URL+"/v1/coalesce", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("native pins beside a dimacs payload accepted: %d %s", resp.StatusCode, out)
	}
}

func TestSaturationBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	// Occupy the single worker and the single queue slot with blocking
	// tasks, submitted straight to the pool.
	block := make(chan struct{})
	defer close(block)
	for i := 0; i < 2; i++ {
		if err := s.pool.Submit(context.Background(), func() { <-block }); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until one task is running and one is queued, so TrySubmit in
	// the handler reliably sees a full queue.
	deadline := time.Now().Add(time.Second)
	for s.pool.QueueDepth() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}
	resp, body := post(t, ts.URL+"/v1/coalesce", pathInstance)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429", resp.StatusCode, body)
	}
	if s.Metrics().Rejected.Load() != 1 {
		t.Fatal("rejection not counted")
	}
}

// A heavy instance about to race takes a heavy-lane slot; with every
// slot taken it answers 429 instead of queueing another expensive race,
// while a light instance still computes.
func TestHeavyLaneRejectsWhenFull(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// Hold every slot, as heavySlots running heavy races would.
	for range heavySlots {
		s.heavy <- struct{}{}
	}
	const n = 513 // a clique: n × density 1 ≥ heavyScore
	spec := &GraphSpec{Vertices: n, K: n}
	for u := range n {
		for v := u + 1; v < n; v++ {
			spec.Edges = append(spec.Edges, [2]int{u, v})
		}
	}
	clique, err := json.Marshal(&Request{Graph: spec})
	if err != nil {
		t.Fatal(err)
	}

	resp, body := post(t, ts.URL+"/v1/coalesce", string(clique))
	if resp.StatusCode != http.StatusTooManyRequests || string(body) != `{"error":"heavy lane full, retry later"}` {
		t.Fatalf("heavy instance, lane full: status %d (%s), want 429", resp.StatusCode, body)
	}
	if resp, body := post(t, ts.URL+"/v1/coalesce", pathInstance); resp.StatusCode != http.StatusOK {
		t.Fatalf("light instance, lane full: status %d (%s), want 200", resp.StatusCode, body)
	}
	<-s.heavy
	if resp, body := post(t, ts.URL+"/v1/coalesce", string(clique)); resp.StatusCode != http.StatusOK {
		t.Fatalf("heavy instance, a slot free: status %d (%s), want 200", resp.StatusCode, body)
	}
	st := s.Registry().Snapshot()
	if r, all, depth := st.Int("heavy_lane_rejects"), st.Int("rejected"), st.Int("heavy_lane_depth"); r != 1 || all != 1 || depth != 1 {
		t.Fatalf("heavy lane rejects %d, rejected %d, depth %d; want 1, 1 and 1", r, all, depth)
	}
}

func TestObservabilityEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts.URL+"/v1/coalesce", pathInstance)
	post(t, ts.URL+"/v1/coalesce", pathInstance)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Requests["coalesce"] != 2 || stats.CacheHits != 1 || stats.CacheMisses != 1 {
		t.Fatalf("stats %+v", stats)
	}
	if stats.CacheEntries != 1 {
		t.Fatalf("cache entries %d, want 1", stats.CacheEntries)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`regcoal_requests_total{endpoint="coalesce"} 2`,
		"regcoal_cache_hits_total 1",
		"regcoal_strategy_wins_total",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, buf.String())
		}
	}
}

// A batch is timed like every other endpoint: one end-to-end sample and
// one decode phase, on both /stats and /metrics.
func TestBatchRequestIsTimed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if resp, body := post(t, ts.URL+"/v1/batch", `{"kind":"coalesce","items":[`+pathInstance+`]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d (%s)", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Request map[string]obs.QuantileSummary `json:"request_duration_seconds"`
		Phase   map[string]obs.QuantileSummary `json:"phase_duration_seconds"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Request["batch"].Count != 1 || stats.Phase["batch/decode"].Count != 1 || len(stats.Phase) != 1 {
		t.Fatalf("request_duration_seconds %v, phase_duration_seconds %v; want one batch request and one batch/decode phase", stats.Request, stats.Phase)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if want := `regcoal_phase_duration_seconds_count{endpoint="batch",phase="decode"} 1`; !strings.Contains(buf.String(), want) {
		t.Errorf("/metrics missing %q", want)
	}
}

func TestGracefulCloseRejectsNewWork(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Close()
	resp, body := post(t, ts.URL+"/v1/coalesce", `{"graph":{"text":"k 2\nnode a\nnode b\nedge a b\nmove a b 1\n"},"no_cache":true}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503 after Close", resp.StatusCode, body)
	}
}

// A K4 with k=2: any spill set must evict two vertices; the residual
// coloring must be proper within k.
const k4Instance = `{"graph":{"vertices":4,"edges":[[0,1],[0,2],[0,3],[1,2],[1,3],[2,3]],"k":2}}`

func TestSpillEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/spill", k4Instance)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out SpillResult
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Spills != 2 || len(out.Spilled) != 2 || out.SpillCost != 2 {
		t.Fatalf("got %+v, want exactly two evictions", out)
	}
	if !out.Optimal {
		t.Fatalf("exact member should prove optimality on K4: %+v", out)
	}
	spilled := map[int]bool{out.Spilled[0]: true, out.Spilled[1]: true}
	for v, c := range out.Coloring {
		if spilled[v] {
			if c != -1 {
				t.Fatalf("spilled vertex %d colored %d", v, c)
			}
		} else if c < 0 || c >= out.K {
			t.Fatalf("vertex %d color %d outside [0,%d)", v, c, out.K)
		}
	}
}

func TestSpillOnColorableGraphSpillsNothing(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/spill", pathInstance)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out SpillResult
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Spills != 0 || len(out.Spilled) != 0 {
		t.Fatalf("spilled on a 2-colorable path: %+v", out)
	}
}

// Satellite acceptance: repeated /v1/spill requests are answered from the
// cache with byte-identical bodies.
func TestSpillRepeatedRequestIsCachedByteIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp1, body1 := post(t, ts.URL+"/v1/spill", k4Instance)
	if got := resp1.Header.Get("X-Regcoal-Cache"); got != "miss" {
		t.Fatalf("first request cache header %q, want miss", got)
	}
	hitsBefore := s.Metrics().CacheHits.Load()
	resp2, body2 := post(t, ts.URL+"/v1/spill", k4Instance)
	if got := resp2.Header.Get("X-Regcoal-Cache"); got != "hit" {
		t.Fatalf("repeat cache header %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("repeat body differs:\n%s\n%s", body1, body2)
	}
	if s.Metrics().CacheHits.Load() != hitsBefore+1 {
		t.Fatal("cache hit counter did not increment")
	}
	if s.Metrics().SpillRequests.Load() != 2 {
		t.Fatalf("spill request counter = %d, want 2", s.Metrics().SpillRequests.Load())
	}
}

func TestSpillBadStrategyRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/spill",
		`{"graph":{"vertices":2,"edges":[[0,1]],"k":2},"strategies":["nope"]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
}
