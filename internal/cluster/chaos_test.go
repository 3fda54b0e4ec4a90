package cluster_test

// Chaos harness: the cluster's byte-identity contract must hold not just
// on the happy path but under injected failure. A seeded fault plan
// blackholes one worker mid-run and makes another answer 10% injected
// 500s; the router's retry/hedge machinery has to absorb both so that
// every response a client reads is byte-identical to a single-process
// service and no injected fault ever surfaces as a client-visible 5xx.
// Determinism is the point: the same plan produces the same fault
// sequence on every run, so these are regression tests, not flake
// roulette.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"regcoal/internal/cluster"
	"regcoal/internal/faultinject"
	"regcoal/internal/obs"
	"regcoal/internal/service"
	"regcoal/internal/session"
)

// The acceptance criterion for the chaos harness: a 3-worker R=2 cluster
// with w1 blackholed from its 6th request and w2 injecting 10% 500s
// answers every corpus family on every endpoint byte-identically to a
// single-process service, with zero client-visible 5xx and a nonzero
// retry count.
func TestChaosDifferentialByteIdentityUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos differential solves the corpus twice per endpoint")
	}
	scfg := service.Config{Workers: 4, QueueCap: 512}
	_, single := startSingle(t, scfg)
	plan := &faultinject.Plan{
		Seed: 42,
		Rules: []faultinject.Rule{
			// w1 goes dark mid-run: every client-side request to it (router
			// forwards, peer fills, readiness probes) fails in transport.
			{Peer: "w1", Mode: faultinject.ModeBlackhole, From: 5},
			// w2 stays up but misbehaves: 10% of its inbound solve requests
			// answer an injected 500 before the handler runs.
			{Peer: "w2", Mode: faultinject.ModeError, Prob: 0.10},
		},
	}
	c := startCluster(t, 3, cluster.InProcessOptions{Service: scfg, Fault: plan})

	insts := quickInstances(t)
	for _, ep := range allEndpoints {
		for _, inst := range insts {
			body := requestBody(t, inst.File)
			wantStatus, _, want := post(t, single.URL+ep, body)
			gotStatus, _, got := post(t, c.RouterURL+ep, body)
			if gotStatus >= http.StatusInternalServerError {
				t.Fatalf("%s %s: injected fault leaked to the client as %d: %s", ep, inst.Name, gotStatus, got)
			}
			if gotStatus != wantStatus || !bytes.Equal(got, want) {
				t.Fatalf("%s %s under chaos: cluster (%d) differs from single (%d):\n%s\n%s",
					ep, inst.Name, gotStatus, wantStatus, got, want)
			}
		}
	}

	// /v1/batch fans out per shard; a faulted shard group must retry to a
	// healthy worker rather than degrade its items to error entries.
	for _, kind := range []string{"coalesce", "allocate", "spill"} {
		breq := service.BatchSolveRequest{Kind: kind}
		for _, inst := range insts {
			breq.Items = append(breq.Items, service.Request{Graph: specFromFileT(inst.File)})
		}
		body, err := json.Marshal(&breq)
		if err != nil {
			t.Fatal(err)
		}
		wantStatus, _, want := post(t, single.URL+"/v1/batch", body)
		gotStatus, _, got := post(t, c.RouterURL+"/v1/batch", body)
		if gotStatus != wantStatus || !bytes.Equal(got, want) {
			t.Fatalf("batch %s under chaos: cluster (%d) differs from single (%d):\n%s\n%s",
				kind, gotStatus, wantStatus, got, want)
		}
	}

	requireFormsForwarded(t, c)
	requireCleanRebuilds(t, c)

	// The run must actually have exercised the machinery under test: the
	// plan fired (drops from the blackhole, injected errors from w2) and
	// the router retried around the damage.
	if r := c.Router.Stats().Int("router_retries"); r == 0 {
		t.Fatal("no router retries recorded under a plan that blackholes a worker")
	}
	drops := c.RouterInjector.Stats().Drops
	injected := int64(0)
	for _, w := range c.Workers {
		drops += w.Injector.Stats().Drops
		injected += w.Injector.Stats().Errors
	}
	if drops == 0 {
		t.Fatal("blackhole rule never fired")
	}
	if injected == 0 {
		t.Fatal("error rule never fired")
	}
}

func get(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

// fakeWorker is a canned worker for router-mechanism tests: always
// ready, answers solve POSTs with a fixed body after an adjustable
// delay, optionally failing the first solve requests.
type fakeWorker struct {
	srv        *httptest.Server
	body       []byte
	delay      atomic.Int64 // nanoseconds before answering a solve
	fail       atomic.Int64 // remaining solve requests to answer 500
	readyz     atomic.Int64 // readiness probes received
	solves     atomic.Int64
	readyDelay time.Duration

	formsMu sync.Mutex
	forms   []string // the CanonHeader of every solve request, in arrival order
}

// sentForms returns the CanonHeader values the worker has received.
func (f *fakeWorker) sentForms() []string {
	f.formsMu.Lock()
	defer f.formsMu.Unlock()
	return slices.Clone(f.forms)
}

func newFakeWorker(t *testing.T, name string) *fakeWorker {
	t.Helper()
	f := &fakeWorker{body: []byte(fmt.Sprintf(`{"worker":%q}`, name))}
	f.srv = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			f.readyz.Add(1)
			time.Sleep(f.readyDelay)
			rw.WriteHeader(http.StatusOK)
			return
		}
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			rw.WriteHeader(http.StatusOK)
			return
		}
		f.solves.Add(1)
		f.formsMu.Lock()
		f.forms = append(f.forms, r.Header.Get(service.CanonHeader))
		f.formsMu.Unlock()
		if d := f.delay.Load(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		if f.fail.Add(-1) >= 0 {
			rw.Header().Set("Content-Type", "application/json")
			rw.WriteHeader(http.StatusInternalServerError)
			rw.Write([]byte(`{"error":"canned failure"}`))
			return
		}
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(http.StatusOK)
		rw.Write(f.body)
	}))
	t.Cleanup(f.srv.Close)
	f.fail.Store(0)
	return f
}

// Hedging: when the owning shard is healthy but slow, the router
// launches a duplicate attempt at the next replica after HedgeAfter and
// the first answer wins — the client sees the fast replica's bytes, not
// the slow owner's tail latency.
func TestHedgedRequestFailsOverSlowPrimary(t *testing.T) {
	a := newFakeWorker(t, "a")
	b := newFakeWorker(t, "b")
	workers := []string{a.srv.URL, b.srv.URL}
	byURL := map[string]*fakeWorker{a.srv.URL: a, b.srv.URL: b}

	router, err := cluster.NewRouter(cluster.RouterConfig{
		Workers:    workers,
		HedgeAfter: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(router)
	t.Cleanup(front.Close)

	body := requestBody(t, quickInstances(t)[0].File)
	var req service.Request
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	seq := router.Ring().Sequence(service.RoutingHash(&req, 0))
	owner, standby := byURL[seq[0]], byURL[seq[1]]
	owner.delay.Store(int64(400 * time.Millisecond))

	status, hdr, got := post(t, front.URL+"/v1/coalesce", body)
	if status != http.StatusOK {
		t.Fatalf("hedged request: status %d: %s", status, got)
	}
	if !bytes.Equal(got, standby.body) {
		t.Fatalf("hedged request answered %s, want the fast standby's body %s", got, standby.body)
	}
	if shard := hdr.Get("X-Regcoal-Shard"); shard != seq[1] {
		t.Fatalf("answer attributed to shard %s, want standby %s", shard, seq[1])
	}
	if router.Stats().Int("router_hedges") == 0 {
		t.Fatal("no hedge recorded for a 400ms owner under a 25ms hedge threshold")
	}
	if owner.solves.Load() == 0 {
		t.Fatal("owner never attempted: hedge should duplicate, not replace, the first attempt")
	}
}

// Every attempt at a native solve or create body carries the router's
// canonical form: the first try, the retry after a 500, and the hedge
// raced against a slow owner. Batch sub-requests and delta bodies carry
// none.
func TestRouterForwardsFormOnEveryAttempt(t *testing.T) {
	a := newFakeWorker(t, "a")
	b := newFakeWorker(t, "b")
	byURL := map[string]*fakeWorker{a.srv.URL: a, b.srv.URL: b}
	router, err := cluster.NewRouter(cluster.RouterConfig{
		Workers:    []string{a.srv.URL, b.srv.URL},
		HedgeAfter: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(router)
	t.Cleanup(front.Close)
	all := func() []string { return append(a.sentForms(), b.sentForms()...) }

	body := requestBody(t, quickInstances(t)[0].File)
	key, form := service.RouteKey(body, 0)
	if form == "" {
		t.Fatal("no form for a native body")
	}
	seq := router.Ring().Sequence(key)
	owner := byURL[seq[0]]

	owner.fail.Store(1) // the first try answers 500; the retry goes on
	if status, _, got := post(t, front.URL+"/v1/coalesce", body); status != http.StatusOK {
		t.Fatalf("retried request: status %d: %s", status, got)
	}
	owner.delay.Store(int64(400 * time.Millisecond)) // the hedge wins
	if status, _, got := post(t, front.URL+"/v1/allocate", body); status != http.StatusOK {
		t.Fatalf("hedged request: status %d: %s", status, got)
	}
	owner.delay.Store(0)
	if st := router.Stats(); st.Int("router_retries") == 0 || st.Int("router_hedges") == 0 {
		t.Fatalf("want a retry and a hedge, stats %v", st)
	}
	// The slow owner's attempt may still be on its way when the hedge
	// has answered: wait for all four attempts to arrive.
	for deadline := time.Now().Add(5 * time.Second); len(all()) < 4 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if len(all()) != 4 {
		t.Fatalf("workers saw %d attempts, want 4 (try, retry, hedged pair)", len(all()))
	}
	for _, got := range all() {
		if got != form {
			t.Fatalf("an attempt carried form %q, want the router's %q (all: %q)", got, form, all())
		}
	}

	na, nb := len(a.sentForms()), len(b.sentForms())
	var req service.Request
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	batch, _ := json.Marshal(service.BatchSolveRequest{Items: []service.Request{req}})
	delta, _ := json.Marshal(service.DeltaRequest{SessionID: "s-1", BaseHash: key, Deltas: []session.Delta{{Op: session.OpAddVertex}}})
	post(t, front.URL+"/v1/batch", batch)
	post(t, front.URL+"/v1/coalesce/delta", delta)
	later := append(a.sentForms()[na:], b.sentForms()[nb:]...)
	for _, got := range later {
		if got != "" {
			t.Fatalf("a batch or delta body carried form %q", got)
		}
	}
	if len(later) != 2 {
		t.Fatalf("the batch and the delta made %d attempts, want 2", len(later))
	}
}

// The retry/hedge counters surface through /metrics in lint-clean
// Prometheus text, alongside the worker's session-replication families.
func TestRouterRetryHedgeMetricsLintClean(t *testing.T) {
	a := newFakeWorker(t, "a")
	b := newFakeWorker(t, "b")
	byURL := map[string]*fakeWorker{a.srv.URL: a, b.srv.URL: b}
	router, err := cluster.NewRouter(cluster.RouterConfig{Workers: []string{a.srv.URL, b.srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(router)
	t.Cleanup(front.Close)

	// The first request's ring owner answers 500 forever and the other
	// worker carries the traffic, so at least that request starts on the
	// failing worker and retries onto the healthy one.
	insts := quickInstances(t)
	var first service.Request
	if err := json.Unmarshal(requestBody(t, insts[0].File), &first); err != nil {
		t.Fatal(err)
	}
	byURL[router.Ring().Owner(service.RoutingHash(&first, 0))].fail.Store(1 << 30)
	for _, inst := range insts[:min(8, len(insts))] {
		status, _, resp := post(t, front.URL+"/v1/coalesce", requestBody(t, inst.File))
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, resp)
		}
	}
	if st := router.Stats(); st.Int("router_retries") == 0 {
		t.Fatalf("no retries recorded against an always-500 worker: %+v", st)
	}

	status, _, metrics := get(t, front.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("router /metrics: status %d", status)
	}
	for _, family := range []string{
		"regcoal_router_retries_total",
		"regcoal_router_hedges_total",
		"regcoal_router_ready_probes_total",
	} {
		if !strings.Contains(string(metrics), family) {
			t.Fatalf("router /metrics missing %s:\n%s", family, metrics)
		}
	}
	if problems := obs.LintPrometheus(string(metrics)); len(problems) > 0 {
		t.Fatalf("router /metrics lint: %v", problems)
	}

	// A real worker's /metrics carries the session-replication families
	// and must lint clean too.
	c := startCluster(t, 2, cluster.InProcessOptions{})
	status, _, wmetrics := get(t, c.Workers[0].URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("worker /metrics: status %d", status)
	}
	for _, family := range []string{
		"regcoal_session_repl_pushes_total",
		"regcoal_session_rebuilds_total",
		"regcoal_session_replica_lag",
	} {
		if !strings.Contains(string(wmetrics), family) {
			t.Fatalf("worker /metrics missing %s:\n%s", family, wmetrics)
		}
	}
	if problems := obs.LintPrometheus(string(wmetrics)); len(problems) > 0 {
		t.Fatalf("worker /metrics lint: %v", problems)
	}
}

// Regression test for the readiness-probe thundering herd: a stale
// cache entry hit by many concurrent requests must cost at most one
// probe per peer per ReadyTTL window, not one per request.
func TestReadinessProbeCachedPerWindow(t *testing.T) {
	a := newFakeWorker(t, "a")
	b := newFakeWorker(t, "b")
	// A slow probe widens the race window: without singleflight, all 32
	// concurrent requests would find the cache stale and probe at once.
	a.readyDelay = 20 * time.Millisecond
	b.readyDelay = 20 * time.Millisecond
	router, err := cluster.NewRouter(cluster.RouterConfig{
		Workers:  []string{a.srv.URL, b.srv.URL},
		ReadyTTL: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(router)
	t.Cleanup(front.Close)

	body := requestBody(t, quickInstances(t)[0].File)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(front.URL+"/v1/coalesce", "application/json", bytes.NewReader(body))
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()

	if n := a.readyz.Load(); n > 1 {
		t.Fatalf("worker a probed %d times in one ReadyTTL window, want at most 1", n)
	}
	if n := b.readyz.Load(); n > 1 {
		t.Fatalf("worker b probed %d times in one ReadyTTL window, want at most 1", n)
	}
	if total := a.readyz.Load() + b.readyz.Load(); total == 0 {
		t.Fatal("no probes at all; the readiness path did not run")
	}
	if st := router.Stats(); st.Int("router_ready_probes") != a.readyz.Load()+b.readyz.Load() {
		t.Fatalf("router counted %d probes, workers received %d", st.Int("router_ready_probes"), a.readyz.Load()+b.readyz.Load())
	}
}
