package cluster_test

// Differential tests for the serving tier's core contract: a multi-node
// cluster — router, sharding, tiered cache, peer fill, batch fan-out —
// answers every request with bytes identical to a single-process
// service. Routing may change where an instance is computed; it must
// never change what the client reads.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"regcoal/internal/cluster"
	"regcoal/internal/corpus"
	"regcoal/internal/graph"
	"regcoal/internal/service"
	"regcoal/internal/session"
)

func startCluster(t *testing.T, n int, opts cluster.InProcessOptions) *cluster.InProcess {
	t.Helper()
	c, err := cluster.StartInProcess(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func startSingle(t *testing.T, cfg service.Config) (*service.Server, *httptest.Server) {
	t.Helper()
	s, err := service.New(cfg)
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

func post(t *testing.T, url string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

func quickInstances(t *testing.T) []*corpus.Instance {
	t.Helper()
	fams, err := corpus.Select("all")
	if err != nil {
		t.Fatal(err)
	}
	insts, err := corpus.BuildAll(fams, corpus.Params{Seed: 20060408, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	return insts
}

func requestBody(t *testing.T, f *graph.File) []byte {
	t.Helper()
	body, err := json.Marshal(&service.Request{Graph: specFromFileT(f)})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// specFromFileT mirrors the internal-package helper for the _test package.
func specFromFileT(f *graph.File) *service.GraphSpec {
	spec := &service.GraphSpec{Vertices: f.G.N(), K: f.K}
	for _, e := range f.G.Edges() {
		spec.Edges = append(spec.Edges, [2]int{int(e[0]), int(e[1])})
	}
	for _, a := range f.G.Affinities() {
		spec.Moves = append(spec.Moves, service.Move{X: int(a.X), Y: int(a.Y), Weight: a.Weight})
	}
	for v := 0; v < f.G.N(); v++ {
		if c, ok := f.G.Precolored(graph.V(v)); ok {
			spec.Precolored = append(spec.Precolored, service.Pin{V: v, Color: c})
		}
	}
	return spec
}

func relabeledFileT(f *graph.File, perm []int) *graph.File {
	g := graph.New(f.G.N())
	for _, e := range f.G.Edges() {
		g.AddEdge(graph.V(perm[e[0]]), graph.V(perm[e[1]]))
	}
	for _, a := range f.G.Affinities() {
		g.AddAffinity(graph.V(perm[a.X]), graph.V(perm[a.Y]), a.Weight)
	}
	for v := 0; v < f.G.N(); v++ {
		if c, ok := f.G.Precolored(graph.V(v)); ok {
			g.SetPrecolored(graph.V(perm[v]), c)
		}
	}
	return &graph.File{G: g, K: f.K}
}

var allEndpoints = []string{"/v1/coalesce", "/v1/allocate", "/v1/spill"}

// replayLog seeds session id on s from a create-only op log through the
// session store's receive and first use, the path a replica's failover
// takes, and returns the replay's error.
func replayLog(s *service.Server, id, baseHash string, create []byte) error {
	if _, err := s.Sessions().Receive(&session.ExportRecord{SessionID: id, BaseHash: baseHash, Create: create}); err != nil {
		return err
	}
	_, err := s.Sessions().Get(id)
	return err
}

// requireCleanRebuilds asserts that no worker failed to replay a session
// op log, or replayed one to a version other than the log's.
func requireCleanRebuilds(t *testing.T, c *cluster.InProcess) {
	t.Helper()
	for _, w := range c.Workers {
		st := w.Service.Registry().Snapshot()
		for _, key := range []string{"session_rebuild_failures", "session_rebuild_divergence"} {
			if n, ok := st[key].(int64); !ok || n != 0 {
				t.Fatalf("worker %s: %s = %v, want 0", w.URL, key, st[key])
			}
		}
	}
}

// requireFormsForwarded asserts that, summed over the workers, some
// canonical forms the router forwarded were verified and used and none
// was refused: a worker that ignored the header, or a router whose forms
// its workers could not verify, fails it.
func requireFormsForwarded(t *testing.T, c *cluster.InProcess) {
	t.Helper()
	var forwarded, rejected int64
	for _, w := range c.Workers {
		st := w.Service.Registry().Snapshot()
		forwarded += st.Int("canon_forwarded")
		rejected += st.Int("canon_forward_rejected")
	}
	if forwarded == 0 || rejected != 0 {
		t.Fatalf("workers used %d forwarded canonical forms and refused %d; want > 0 and 0", forwarded, rejected)
	}
}

// The acceptance criterion: every corpus family through a 3-worker
// cluster — single solves on all three endpoints, relabeled duplicates
// served through the tiered cache, and /v1/batch — answers byte-identical
// to a single-process service.
func TestClusterDifferentialByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("differential test solves the corpus twice per endpoint")
	}
	scfg := service.Config{Workers: 4, QueueCap: 512}
	_, single := startSingle(t, scfg)
	c := startCluster(t, 3, cluster.InProcessOptions{Service: scfg})

	insts := quickInstances(t)
	rng := rand.New(rand.NewSource(11))
	for _, ep := range allEndpoints {
		for _, inst := range insts {
			body := requestBody(t, inst.File)
			wantStatus, _, want := post(t, single.URL+ep, body)
			gotStatus, hdr, got := post(t, c.RouterURL+ep, body)
			if gotStatus != wantStatus {
				t.Fatalf("%s %s: cluster status %d, single %d", ep, inst.Name, gotStatus, wantStatus)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s %s: cluster body differs from single-node:\n%s\n%s", ep, inst.Name, got, want)
			}
			if hdr.Get("X-Regcoal-Shard") == "" {
				t.Fatalf("%s %s: router response missing shard header", ep, inst.Name)
			}

			// A relabeled duplicate is a different request body with a
			// different (but still deterministic) response; the cluster
			// must agree with single-node on it too. For invariant
			// instances this lands on the same shard and exercises the
			// cache across numberings.
			perm := rng.Perm(inst.File.G.N())
			dupBody := requestBody(t, relabeledFileT(inst.File, perm))
			wantStatus, _, want = post(t, single.URL+ep, dupBody)
			gotStatus, _, got = post(t, c.RouterURL+ep, dupBody)
			if gotStatus != wantStatus || !bytes.Equal(got, want) {
				t.Fatalf("%s %s relabeled: cluster (%d) differs from single (%d):\n%s\n%s",
					ep, inst.Name, gotStatus, wantStatus, got, want)
			}
		}
	}

	requireFormsForwarded(t, c)

	// Peer cache fill: the same instances posted directly to a worker
	// outside their hash's replica set (replicas already hold the entry
	// via push-on-compute, so only a non-replica exercises the L2
	// lookup). The non-replica fills from an owner's cache (seeded by
	// the routed traffic above) and must still answer byte-identically.
	ring := c.Router.Ring()
	peerFillsBefore := int64(0)
	for _, w := range c.Workers {
		peerFillsBefore += w.Service.Registry().Snapshot().Int("cluster_peer_fills")
	}
	for _, inst := range insts {
		body := requestBody(t, inst.File)
		var req service.Request
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatal(err)
		}
		replicas := ring.Replicas(service.RoutingHash(&req, 0), cluster.DefaultReplicas)
		var nonOwner *cluster.InProcessWorker
		for _, w := range c.Workers {
			if !slices.Contains(replicas, w.URL) {
				nonOwner = w
				break
			}
		}
		if nonOwner == nil {
			t.Fatalf("%s: no worker outside replica set %v", inst.Name, replicas)
		}
		wantStatus, _, want := post(t, single.URL+"/v1/coalesce", body)
		gotStatus, _, got := post(t, nonOwner.URL+"/v1/coalesce", body)
		if gotStatus != wantStatus || !bytes.Equal(got, want) {
			t.Fatalf("%s via non-owner %s: (%d) differs from single (%d):\n%s\n%s",
				inst.Name, nonOwner.URL, gotStatus, wantStatus, got, want)
		}
	}
	peerFillsAfter := int64(0)
	for _, w := range c.Workers {
		peerFillsAfter += w.Service.Registry().Snapshot().Int("cluster_peer_fills")
	}
	if peerFillsAfter <= peerFillsBefore {
		t.Fatalf("no peer fills recorded across the non-owner pass (before %d, after %d)", peerFillsBefore, peerFillsAfter)
	}

	// /v1/batch with every instance, all three kinds, spliced across
	// shards, must be byte-identical to the single process answering the
	// whole batch.
	for _, kind := range []string{"coalesce", "allocate", "spill"} {
		breq := service.BatchSolveRequest{Kind: kind}
		for _, inst := range insts {
			var req service.Request
			if err := json.Unmarshal(requestBody(t, inst.File), &req); err != nil {
				t.Fatal(err)
			}
			breq.Items = append(breq.Items, req)
		}
		body, err := json.Marshal(&breq)
		if err != nil {
			t.Fatal(err)
		}
		wantStatus, _, want := post(t, single.URL+"/v1/batch", body)
		gotStatus, _, got := post(t, c.RouterURL+"/v1/batch", body)
		if wantStatus != http.StatusOK {
			t.Fatalf("batch %s: single-node status %d: %s", kind, wantStatus, want)
		}
		if gotStatus != wantStatus || !bytes.Equal(got, want) {
			t.Fatalf("batch %s: cluster (%d) differs from single (%d)", kind, gotStatus, wantStatus)
		}
	}

	// Items that fail validation (no register count, a self-loop) answer
	// per-item errors in place, byte-identically through the shards.
	mixed, err := json.Marshal(&service.BatchSolveRequest{Items: []service.Request{
		{Graph: specFromFileT(insts[0].File)},
		{Graph: &service.GraphSpec{Vertices: 3, Edges: [][2]int{{0, 1}}}},
		{Graph: &service.GraphSpec{Text: "k 2\nedge a a\n"}},
		{Graph: specFromFileT(insts[1].File)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	wantStatus, _, want := post(t, single.URL+"/v1/batch", mixed)
	gotStatus, _, got := post(t, c.RouterURL+"/v1/batch", mixed)
	if wantStatus != http.StatusOK || !bytes.Contains(want, []byte(`"error"`)) {
		t.Fatalf("mixed batch: single-node status %d without per-item errors: %s", wantStatus, want)
	}
	if gotStatus != wantStatus || !bytes.Equal(got, want) {
		t.Fatalf("mixed batch: cluster (%d) %s, single (%d) %s", gotStatus, got, wantStatus, want)
	}

	// Error paths route to the deterministic fallback shard and must
	// reproduce the single-node error bodies exactly.
	for _, bad := range []string{
		`{"graph":{"vertices":3,"edges":[[0,1]]}}`, // no register count
		`{}`, // missing graph
		`{"graph":{"vertices":2,"edges":[[0,5]],"k":2}}`, // vertex out of range
		`not json`,                    // undecodable
		`{"kind":"bogus","items":[]}`, // sent to /v1/coalesce: unknown field
	} {
		wantStatus, _, want := post(t, single.URL+"/v1/coalesce", []byte(bad))
		gotStatus, _, got := post(t, c.RouterURL+"/v1/coalesce", []byte(bad))
		if gotStatus != wantStatus || !bytes.Equal(got, want) {
			t.Fatalf("error body %q: cluster (%d) %s, single (%d) %s", bad, gotStatus, got, wantStatus, want)
		}
	}
	badBatches := []string{
		`{"kind":"bogus","items":[{}]}`,
		`{"kind":"coalesce","items":[]}`,
		`{"unknown_field":1}`,
	}
	for _, bad := range badBatches {
		wantStatus, _, want := post(t, single.URL+"/v1/batch", []byte(bad))
		gotStatus, _, got := post(t, c.RouterURL+"/v1/batch", []byte(bad))
		if gotStatus != wantStatus || !bytes.Equal(got, want) {
			t.Fatalf("batch error body %q: cluster (%d) %s, single (%d) %s", bad, gotStatus, got, wantStatus, want)
		}
	}
}

// Malformed solve, batch and delta bodies get the same status, the same
// body and the same bad_requests increase from a plain service and from
// a standalone worker: both answer through one pipeline, and each 400
// is counted once.
func TestBadRequestsMatchSingleNode(t *testing.T) {
	scfg := service.Config{Workers: 2, QueueCap: 16, MaxBatch: 2}
	single, singleTS := startSingle(t, scfg)
	svc, err := service.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := cluster.NewWorker(svc, cluster.WorkerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	workerTS := httptest.NewServer(w)
	t.Cleanup(func() {
		workerTS.Close()
		svc.Close()
	})

	cases := []struct{ path, body string }{
		{"/v1/coalesce", `not json`},
		{"/v1/coalesce", `{}`},
		{"/v1/allocate", `{"graph":{"vertices":2,"edges":[[0,5]],"k":2}}`},
		{"/v1/spill", `{"batch":[{}]}`},
		{"/v1/batch", `not json`},
		{"/v1/batch", `{"kind":"bogus","items":[{}]}`},
		{"/v1/batch", `{"kind":"coalesce","items":[]}`},
		{"/v1/batch", `{"items":[{},{},{}]}`},
		{"/v1/batch", `{"items":[{},{"graph":{"text":"k 2\nedge a a\n"}}]}`},
		{"/v1/coalesce/delta", `not json`},
		{"/v1/coalesce/delta", `{"op":"create"}`},
		{"/v1/coalesce/delta", `{"op":"delta"}`},
		{"/v1/coalesce/delta", `{"op":"bogus","session_id":"s"}`},
	}
	for _, tc := range cases {
		singleBefore := single.Metrics().BadRequests.Load()
		workerBefore := svc.Metrics().BadRequests.Load()
		wantStatus, _, want := post(t, singleTS.URL+tc.path, []byte(tc.body))
		gotStatus, _, got := post(t, workerTS.URL+tc.path, []byte(tc.body))
		if gotStatus != wantStatus || !bytes.Equal(got, want) {
			t.Errorf("%s %s: worker (%d) %s, single (%d) %s", tc.path, tc.body, gotStatus, got, wantStatus, want)
		}
		singleBad := single.Metrics().BadRequests.Load() - singleBefore
		workerBad := svc.Metrics().BadRequests.Load() - workerBefore
		if singleBad == 0 || workerBad != singleBad {
			t.Errorf("%s %s: bad_requests rose by %d on the worker, %d on a single node (want equal, nonzero)",
				tc.path, tc.body, workerBad, singleBad)
		}
	}
}

// A worker given peers but not its own URL is refused: it could neither
// find its ranges nor replicate, and would serve as a lone node while
// the router still sent it a shard.
func TestNewWorkerRefusesPeersWithoutSelf(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := cluster.NewWorker(svc, cluster.WorkerConfig{Peers: []string{"http://w0", "http://w1"}}); err == nil {
		t.Fatal("NewWorker accepted Peers without Self")
	}
}

// The singleflight acceptance test: 64 concurrent identical requests
// through the router produce exactly one portfolio race cluster-wide and
// 64 byte-identical responses. The instance is a dense branch-and-bound
// graph whose race runs the full 500ms deadline, so every follower
// arrives while the leader is still computing.
func TestClusterSingleflightCollapses64ConcurrentDuplicates(t *testing.T) {
	c := startCluster(t, 3, cluster.InProcessOptions{
		Service: service.Config{Workers: 4, QueueCap: 256},
	})
	rng := rand.New(rand.NewSource(42))
	g := graph.RandomER(rng, 48, 0.4)
	graph.SprinkleAffinities(rng, g, 14, 100)
	body, err := json.Marshal(&service.Request{
		Graph:      specFromFileT(&graph.File{G: g, K: 6}),
		DeadlineMS: 500,
	})
	if err != nil {
		t.Fatal(err)
	}

	const n = 64
	var wg sync.WaitGroup
	statuses := make([]int, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			resp, err := client.Post(c.RouterURL+"/v1/coalesce", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			statuses[i] = resp.StatusCode
			bodies[i] = data
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, statuses[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs from request 0:\n%s\n%s", i, bodies[i], bodies[0])
		}
	}

	solves := int64(0)
	collapses := int64(0)
	for _, w := range c.Workers {
		st := w.Service.Registry().Snapshot()
		for _, wins := range st.Labels("strategy_wins") {
			solves += wins
		}
		collapses += st.Int("singleflight_collapses")
	}
	if solves != 1 {
		t.Fatalf("cluster ran %d portfolio races for %d identical requests, want exactly 1", solves, n)
	}
	if collapses == 0 {
		t.Fatal("no singleflight collapses recorded across 64 concurrent duplicates")
	}
}

// Peer fill in isolation: solve on the owner, then ask a non-owner for
// the same instance — it must answer from the owner's cache (tier
// "peer") without computing, byte-identically.
func TestPeerFillServesWithoutRecompute(t *testing.T) {
	c := startCluster(t, 2, cluster.InProcessOptions{
		Service: service.Config{Workers: 2, QueueCap: 64},
		// R = 1: under the replicated default (R = 2) a 2-worker cluster
		// push-on-computes every entry to both shards, so the "peer" tier
		// this test isolates would never be exercised.
		Worker: cluster.WorkerConfig{Replicas: 1},
		Router: cluster.RouterConfig{Replicas: 1},
	})
	insts := quickInstances(t)
	inst := insts[0] // chordal: WL-discriminated, hash is relabel-invariant
	body := requestBody(t, inst.File)
	var req service.Request
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	owner := c.Router.Ring().Owner(service.RoutingHash(&req, 0))
	var ownerW, otherW *cluster.InProcessWorker
	for _, w := range c.Workers {
		if w.URL == owner {
			ownerW = w
		} else {
			otherW = w
		}
	}
	if ownerW == nil || otherW == nil {
		t.Fatalf("could not split owner/non-owner from %q", owner)
	}

	status, hdr, want := post(t, ownerW.URL+"/v1/coalesce", body)
	if status != http.StatusOK {
		t.Fatalf("owner solve: status %d: %s", status, want)
	}
	if tier := hdr.Get("X-Regcoal-Tier"); tier != "compute" {
		t.Fatalf("owner first solve tier %q, want compute", tier)
	}

	status, hdr, got := post(t, otherW.URL+"/v1/coalesce", body)
	if status != http.StatusOK {
		t.Fatalf("non-owner solve: status %d: %s", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("peer-filled body differs:\n%s\n%s", got, want)
	}
	if tier := hdr.Get("X-Regcoal-Tier"); tier != "peer" {
		t.Fatalf("non-owner tier %q, want peer", tier)
	}
	if hit := hdr.Get("X-Regcoal-Cache"); hit != "hit" {
		t.Fatalf("non-owner disposition %q, want hit", hit)
	}
	if fills := otherW.Service.Registry().Snapshot().Int("cluster_peer_fills"); fills != 1 {
		t.Fatalf("non-owner recorded %d peer fills, want 1", fills)
	}
	for name, wins := range otherW.Service.Registry().Snapshot().Labels("strategy_wins") {
		if wins > 0 {
			t.Fatalf("non-owner computed (%s won %d races) despite peer fill", name, wins)
		}
	}

	// A relabeled duplicate of the now-seeded instance hits the
	// non-owner's local cache in its own numbering.
	perm := rand.New(rand.NewSource(3)).Perm(inst.File.G.N())
	dupBody := requestBody(t, relabeledFileT(inst.File, perm))
	status, hdr, dup := post(t, otherW.URL+"/v1/coalesce", dupBody)
	if status != http.StatusOK {
		t.Fatalf("relabeled duplicate: status %d: %s", status, dup)
	}
	if disp := hdr.Get("X-Regcoal-Cache"); disp != "hit" {
		t.Fatalf("relabeled duplicate disposition %q, want hit", disp)
	}
	if bytes.Equal(dup, want) {
		t.Fatal("relabeled duplicate answered with the original numbering's body")
	}
}

// Draining a worker flips its /readyz to 503 (liveness stays 200) and
// the router fails its keys over to the next ring node, still answering
// byte-identically.
func TestDrainFailsReadinessAndRouterFailsOver(t *testing.T) {
	c := startCluster(t, 2, cluster.InProcessOptions{
		Service: service.Config{Workers: 2, QueueCap: 64},
		Router:  cluster.RouterConfig{ReadyTTL: time.Nanosecond}, // probe every request
	})
	insts := quickInstances(t)
	body := requestBody(t, insts[1].File)

	status, hdr, want := post(t, c.RouterURL+"/v1/coalesce", body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, want)
	}
	shard := hdr.Get("X-Regcoal-Shard")
	var drained *cluster.InProcessWorker
	for _, w := range c.Workers {
		if w.URL == shard {
			drained = w
		}
	}
	if drained == nil {
		t.Fatalf("shard header %q matches no worker", shard)
	}
	drained.Service.BeginDrain()

	// Liveness and readiness split: the draining worker is alive but not
	// ready.
	resp, err := http.Get(drained.URL + "/livez")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/livez of draining worker: %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(drained.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz of draining worker: %d, want 503", resp.StatusCode)
	}

	status, hdr, got := post(t, c.RouterURL+"/v1/coalesce", body)
	if status != http.StatusOK {
		t.Fatalf("post-drain status %d: %s", status, got)
	}
	if hdr.Get("X-Regcoal-Shard") == shard {
		t.Fatalf("router still routed to draining shard %s", shard)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("failover body differs:\n%s\n%s", got, want)
	}
}

// A full heavy lane answers 429 with backpressure instead of queueing
// more expensive races.
func TestAdmissionHeavyLaneRejectsWhenFull(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 4, QueueCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	w, err := cluster.NewWorker(svc, cluster.WorkerConfig{
		Admission: cluster.AdmissionConfig{HeavySlots: 1, HeavyVertices: 1}, // everything is heavy
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(w)
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})

	rng := rand.New(rand.NewSource(42))
	g := graph.RandomER(rng, 48, 0.4)
	graph.SprinkleAffinities(rng, g, 14, 100)
	body, err := json.Marshal(&service.Request{
		Graph:      specFromFileT(&graph.File{G: g, K: 6}),
		DeadlineMS: 500,
		NoCache:    true, // force a real compute per request: no cache, no collapse
	})
	if err != nil {
		t.Fatal(err)
	}

	holder := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/coalesce", "application/json", bytes.NewReader(body))
		if err != nil {
			holder <- err
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			holder <- fmt.Errorf("holder status %d", resp.StatusCode)
			return
		}
		holder <- nil
	}()
	time.Sleep(150 * time.Millisecond) // holder is inside its 500ms race

	status, _, got := post(t, ts.URL+"/v1/coalesce", body)
	if status != http.StatusTooManyRequests {
		t.Fatalf("second heavy request: status %d (%s), want 429", status, got)
	}
	var e service.ErrorResponse
	if err := json.Unmarshal(got, &e); err != nil {
		t.Fatal(err)
	}
	if e.Error != "heavy lane full, retry later" {
		t.Fatalf("429 body %q", e.Error)
	}
	if err := <-holder; err != nil {
		t.Fatal(err)
	}
	if rejects := svc.Registry().Snapshot().Labels("cluster_lane_rejects")["heavy"]; rejects != 1 {
		t.Fatalf("heavy lane rejects %d, want 1", rejects)
	}

	// With the lane free again the same request is admitted.
	status, _, got = post(t, ts.URL+"/v1/coalesce", body)
	if status != http.StatusOK {
		t.Fatalf("post-release request: status %d: %s", status, got)
	}
}

// The CI smoke topology: router + 2 workers in-process, a corpus slice
// through /v1/batch, byte-identical to single-node. Kept fast enough to
// run under -race in every CI build.
func TestClusterSmokeBatchByteIdentical(t *testing.T) {
	scfg := service.Config{Workers: 2, QueueCap: 128}
	_, single := startSingle(t, scfg)
	c := startCluster(t, 2, cluster.InProcessOptions{Service: scfg})

	insts := quickInstances(t)
	if len(insts) > 8 {
		insts = insts[:8]
	}
	breq := service.BatchSolveRequest{Kind: "coalesce"}
	for _, inst := range insts {
		var req service.Request
		if err := json.Unmarshal(requestBody(t, inst.File), &req); err != nil {
			t.Fatal(err)
		}
		breq.Items = append(breq.Items, req)
	}
	body, err := json.Marshal(&breq)
	if err != nil {
		t.Fatal(err)
	}
	wantStatus, _, want := post(t, single.URL+"/v1/batch", body)
	if wantStatus != http.StatusOK {
		t.Fatalf("single-node batch status %d: %s", wantStatus, want)
	}
	gotStatus, _, got := post(t, c.RouterURL+"/v1/batch", body)
	if gotStatus != http.StatusOK {
		t.Fatalf("cluster batch status %d: %s", gotStatus, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("cluster batch body differs from single-node:\n%s\n%s", got, want)
	}
	var out service.BatchResponse
	if err := json.Unmarshal(got, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(insts) {
		t.Fatalf("%d results for %d items", len(out.Results), len(insts))
	}
	for i, r := range out.Results {
		if r.Error != "" || r.Coalesce == nil {
			t.Fatalf("result %d: error %q", i, r.Error)
		}
	}
	// The batch was genuinely sharded: it touched exactly the shards the
	// ring assigns to the items' routing hashes. (With random ports the
	// ring occasionally maps every item to one worker — a legal split —
	// so the expectation is computed, not hard-coded at 2.)
	ring := c.Router.Ring()
	owners := make(map[string]bool, len(breq.Items))
	for i := range breq.Items {
		owners[ring.Owner(service.RoutingHash(&breq.Items[i], 200000))] = true
	}
	if shards := c.Router.Stats().Labels("router_shard_requests"); len(shards) != len(owners) {
		t.Fatalf("batch touched %d shards, ring expects %d: %v", len(shards), len(owners), shards)
	}
}
