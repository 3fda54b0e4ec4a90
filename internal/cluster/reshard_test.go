package cluster_test

// Live-membership tests: epoch-versioned topology updates through the
// router's admin endpoint, the stale-epoch 409 exchange, cache handoff
// on reshard, and session migration. The acceptance bar is the same as
// every other cluster test: under add/remove/re-add churn with live
// traffic, the cluster answers bytes identical to a single-node service,
// and clients never see a 5xx.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
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

// waitHandoffs blocks until no worker has a handoff streaming.
func waitHandoffs(t *testing.T, c *cluster.InProcess) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, w := range c.Workers {
		if err := w.Worker.HandoffWait(ctx); err != nil {
			t.Fatalf("handoff on %s: %v", w.URL, err)
		}
	}
}

func TestTopologyAdminAPI(t *testing.T) {
	c := startCluster(t, 2, cluster.InProcessOptions{})

	// GET returns the initial view at epoch 1.
	resp, err := http.Get(c.RouterURL + "/internal/topology")
	if err != nil {
		t.Fatal(err)
	}
	var wire cluster.TopologyWire
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if wire.Epoch != 1 || len(wire.Nodes) != 2 {
		t.Fatalf("initial view %+v", wire)
	}

	// A CAS against the wrong epoch is a structured 409 carrying the
	// current view — the rejection is the ring refetch.
	body, _ := json.Marshal(map[string]any{"from_epoch": 99, "nodes": wire.Nodes})
	status, _, respBody := post(t, c.RouterURL+"/internal/topology", body)
	if status != http.StatusConflict {
		t.Fatalf("stale CAS: status %d: %s", status, respBody)
	}
	var stale struct {
		Error    string               `json:"error"`
		Have     uint64               `json:"have"`
		Got      uint64               `json:"got"`
		Topology cluster.TopologyWire `json:"topology"`
	}
	if err := json.Unmarshal(respBody, &stale); err != nil {
		t.Fatalf("409 body not structured: %s", respBody)
	}
	if stale.Have != 1 || stale.Got != 99 || stale.Topology.Epoch != 1 {
		t.Fatalf("409 payload %+v", stale)
	}

	// Empty and self-emptying updates are 400s, not topology changes.
	for _, bad := range []string{`{}`, fmt.Sprintf(`{"remove":[%q,%q]}`, wire.Nodes[0], wire.Nodes[1])} {
		status, _, respBody = post(t, c.RouterURL+"/internal/topology", []byte(bad))
		if status != http.StatusBadRequest {
			t.Fatalf("update %s: status %d: %s", bad, status, respBody)
		}
	}

	// A valid add bumps the epoch and the broadcast is adopted by every
	// worker before the update returns.
	w3, err := c.AddWorker()
	if err != nil {
		t.Fatal(err)
	}
	next, err := c.UpdateTopology([]string{w3.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if next.Epoch != 2 || len(next.Nodes) != 3 {
		t.Fatalf("post-add view %+v", next)
	}
	for _, w := range c.Workers {
		if got := w.Service.Registry().Snapshot().Int("topology_epoch"); got != 2 {
			t.Fatalf("worker %s at epoch %d after broadcast, want 2", w.URL, got)
		}
	}
	if got := c.Router.Stats().Int("topology_epoch"); got != 2 {
		t.Fatalf("router at epoch %d, want 2", got)
	}
}

func TestStaleEpochRejectedOnInternalRPC(t *testing.T) {
	c := startCluster(t, 2, cluster.InProcessOptions{})

	req, err := http.NewRequest(http.MethodPost, c.Workers[0].URL+"/internal/session/log",
		bytes.NewReader([]byte(`{"session_id":"s-x","base_hash":"h","version":0,"create":{}}`)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.EpochHeader, "99")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale-epoch RPC: status %d", resp.StatusCode)
	}
	var stale struct {
		Have     uint64               `json:"have"`
		Got      uint64               `json:"got"`
		Topology cluster.TopologyWire `json:"topology"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stale); err != nil {
		t.Fatal(err)
	}
	if stale.Have != 1 || stale.Got != 99 || len(stale.Topology.Nodes) != 2 {
		t.Fatalf("409 payload %+v", stale)
	}
	if rejects := c.Workers[0].Service.Registry().Snapshot().Int("epoch_rejects"); rejects != 1 {
		t.Fatalf("epoch_rejects = %d, want 1", rejects)
	}
}

func TestReadinessCacheInvalidatedOnEpochChange(t *testing.T) {
	c := startCluster(t, 2, cluster.InProcessOptions{
		Router: cluster.RouterConfig{ReadyTTL: time.Minute},
	})
	insts := quickInstances(t)
	body := requestBody(t, insts[0].File)

	status, _, resp := post(t, c.RouterURL+"/v1/coalesce", body)
	if status != http.StatusOK {
		t.Fatalf("solve: status %d: %s", status, resp)
	}
	probed := c.Router.Stats().Int("router_ready_probes")
	if probed == 0 {
		t.Fatal("first forward issued no readiness probe")
	}
	// Within the TTL the cache answers; no new probes.
	post(t, c.RouterURL+"/v1/coalesce", body)
	if got := c.Router.Stats().Int("router_ready_probes"); got != probed {
		t.Fatalf("probes %d -> %d inside TTL window", probed, got)
	}
	// An epoch bump (full-set replacement with the same nodes) must drop
	// the cached probes: membership moved, staleness is not acceptable.
	nodes := c.Router.Topology().View().Nodes
	upd, _ := json.Marshal(map[string]any{"nodes": nodes})
	status, _, resp = post(t, c.RouterURL+"/internal/topology", upd)
	if status != http.StatusOK {
		t.Fatalf("topology update: status %d: %s", status, resp)
	}
	post(t, c.RouterURL+"/v1/coalesce", body)
	if got := c.Router.Stats().Int("router_ready_probes"); got <= probed {
		t.Fatalf("probes stayed at %d after epoch change; cache not invalidated", got)
	}
}

func TestRingNodesReturnsCopy(t *testing.T) {
	ring := cluster.NewRing([]string{"http://a", "http://b"})
	nodes := ring.Nodes()
	nodes[0] = "http://mutated"
	if again := ring.Nodes(); again[0] != "http://a" {
		t.Fatalf("Ring.Nodes leaked internal state: %v", again)
	}
}

// The tentpole differential: a 2-node cluster under continuous live load
// (solves plus a delta session) goes through add -> remove -> re-add of
// a third worker. Every response during and after the churn must be
// byte-identical to an undisturbed single-node service, no client may
// see a 5xx, the epoch must advance once per edit, and the reshard must
// actually stream cache entries to the new owners.
func TestReshardChurnDifferentialByteIdentical(t *testing.T) {
	scfg := service.Config{Workers: 2, QueueCap: 128}
	_, single := startSingle(t, scfg)
	c := startCluster(t, 2, cluster.InProcessOptions{Service: scfg})

	insts := quickInstances(t)
	if len(insts) > 8 {
		insts = insts[:8]
	}
	bodies := make([][]byte, len(insts))
	want := make([][]byte, len(insts))
	for i, inst := range insts {
		bodies[i] = requestBody(t, inst.File)
		status, _, resp := post(t, single.URL+"/v1/coalesce", bodies[i])
		if status != http.StatusOK {
			t.Fatalf("single-node reference %d: status %d: %s", i, status, resp)
		}
		want[i] = resp
	}
	// Warm the cluster's caches so the reshard has entries to hand off.
	for i := range bodies {
		status, _, resp := post(t, c.RouterURL+"/v1/coalesce", bodies[i])
		if status != http.StatusOK {
			t.Fatalf("warmup %d: status %d: %s", i, status, resp)
		}
		if !bytes.Equal(resp, want[i]) {
			t.Fatalf("warmup %d: cluster differs from single-node:\n%s\n%s", i, resp, want[i])
		}
	}

	// One delta session, created on both sides. Session ids are minted
	// per store (clock-seeded), so the two sides carry different ids:
	// byte-identity is asserted modulo each side's own id.
	spec := &service.GraphSpec{Vertices: 8, K: 3}
	for v := 1; v < spec.Vertices; v++ {
		spec.Edges = append(spec.Edges, [2]int{v - 1, v})
	}
	spec.Moves = append(spec.Moves, service.Move{X: 0, Y: 7, Weight: 11})
	createBody, _ := json.Marshal(service.DeltaRequest{Op: "create", Graph: spec})
	var singleSess, clusterSess service.DeltaResponse
	sessionStep := func(step string, singleBody, clusterBody []byte) {
		t.Helper()
		wantStatus, _, wantResp := post(t, single.URL+"/v1/coalesce/delta", singleBody)
		gotStatus, _, gotResp := post(t, c.RouterURL+"/v1/coalesce/delta", clusterBody)
		if wantStatus != http.StatusOK || gotStatus != wantStatus {
			t.Fatalf("%s: single %d cluster %d: %s / %s", step, wantStatus, gotStatus, wantResp, gotResp)
		}
		wantNorm := bytes.ReplaceAll(wantResp, []byte(singleSess.SessionID), []byte("<sid>"))
		gotNorm := bytes.ReplaceAll(gotResp, []byte(clusterSess.SessionID), []byte("<sid>"))
		if !bytes.Equal(gotNorm, wantNorm) {
			t.Fatalf("%s: cluster differs from single-node:\n%s\n%s", step, gotNorm, wantNorm)
		}
	}
	wantStatus, _, wantResp := post(t, single.URL+"/v1/coalesce/delta", createBody)
	gotStatus, _, gotResp := post(t, c.RouterURL+"/v1/coalesce/delta", createBody)
	if wantStatus != http.StatusOK || gotStatus != http.StatusOK {
		t.Fatalf("create: single %d cluster %d: %s / %s", wantStatus, gotStatus, wantResp, gotResp)
	}
	if err := json.Unmarshal(wantResp, &singleSess); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(gotResp, &clusterSess); err != nil {
		t.Fatal(err)
	}
	if singleSess.BaseHash != clusterSess.BaseHash {
		t.Fatalf("base hash diverged at create: %s vs %s", singleSess.BaseHash, clusterSess.BaseHash)
	}
	if want, got := bytes.ReplaceAll(wantResp, []byte(singleSess.SessionID), []byte("<sid>")),
		bytes.ReplaceAll(gotResp, []byte(clusterSess.SessionID), []byte("<sid>")); !bytes.Equal(got, want) {
		t.Fatalf("create: cluster differs from single-node:\n%s\n%s", got, want)
	}
	deltaBodies := func(version int64) (singleBody, clusterBody []byte) {
		mk := func(s *service.DeltaResponse) []byte {
			v := version
			b, _ := json.Marshal(service.DeltaRequest{
				SessionID: s.SessionID, BaseHash: s.BaseHash, Version: &v,
				Deltas: []session.Delta{{Op: session.OpAddVertex}},
			})
			return b
		}
		return mk(&singleSess), mk(&clusterSess)
	}
	sb, cb := deltaBodies(0)
	sessionStep("delta 0", sb, cb)
	sb, cb = deltaBodies(1)
	sessionStep("delta 1", sb, cb)

	// Live load against the router for the whole churn.
	var (
		served     atomic.Int64
		serverErrs atomic.Int64
		loadMu     sync.Mutex
		loadErr    error
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i = (i + 1) % len(bodies) {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(c.RouterURL+"/v1/coalesce", "application/json", bytes.NewReader(bodies[i]))
				if err != nil {
					loadMu.Lock()
					if loadErr == nil {
						loadErr = err
					}
					loadMu.Unlock()
					return
				}
				data := make([]byte, 0, len(want[i]))
				buf := bytes.NewBuffer(data)
				buf.ReadFrom(resp.Body)
				resp.Body.Close()
				served.Add(1)
				if resp.StatusCode >= http.StatusInternalServerError {
					serverErrs.Add(1)
				}
				if resp.StatusCode == http.StatusOK && !bytes.Equal(buf.Bytes(), want[i]) {
					loadMu.Lock()
					if loadErr == nil {
						loadErr = fmt.Errorf("instance %d: cluster bytes diverged under churn", i)
					}
					loadMu.Unlock()
					return
				}
			}
		}(g)
	}

	// add -> remove -> re-add, waiting out each handoff.
	w3, err := c.AddWorker()
	if err != nil {
		t.Fatal(err)
	}
	for step, edit := range []struct{ add, remove []string }{
		{add: []string{w3.URL}},
		{remove: []string{w3.URL}},
		{add: []string{w3.URL}},
	} {
		wire, err := c.UpdateTopology(edit.add, edit.remove)
		if err != nil {
			t.Fatalf("churn step %d: %v", step, err)
		}
		if wire.Epoch != uint64(2+step) {
			t.Fatalf("churn step %d installed epoch %d, want %d", step, wire.Epoch, 2+step)
		}
		waitHandoffs(t, c)
	}
	close(stop)
	wg.Wait()
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	if served.Load() == 0 {
		t.Fatal("live load served no requests during the churn")
	}
	if errs := serverErrs.Load(); errs != 0 {
		t.Fatalf("%d client-visible 5xx during churn, want 0 (%d served)", errs, served.Load())
	}

	// The reshard actually moved cache state.
	var handoffEntries, handoffRounds int64
	for _, w := range c.Workers {
		st := w.Service.Registry().Snapshot()
		handoffEntries += st.Int("handoff_entries")
		handoffRounds += st.Int("handoff_rounds")
	}
	if handoffRounds == 0 {
		t.Fatal("no worker ran a handoff round across three topology changes")
	}
	if handoffEntries == 0 {
		t.Fatal("handoff streamed zero cache entries across three topology changes")
	}
	if got := c.Router.Topology().Epoch(); got != 4 {
		t.Fatalf("router epoch %d after three edits, want 4", got)
	}
	for _, w := range c.Workers {
		if got := w.Service.Registry().Snapshot().Int("topology_epoch"); got != 4 {
			t.Fatalf("worker %s at epoch %d, want 4", w.URL, got)
		}
	}

	// The session resumed across the reshard answers byte-identically at
	// the same id and version, wherever it lives now.
	sb, cb = deltaBodies(2)
	sessionStep("post-churn delta 2", sb, cb)
	sb, cb = deltaBodies(3)
	sessionStep("post-churn delta 3", sb, cb)
	closeSingle, _ := json.Marshal(service.DeltaRequest{
		Op: "close", SessionID: singleSess.SessionID, BaseHash: singleSess.BaseHash})
	closeCluster, _ := json.Marshal(service.DeltaRequest{
		Op: "close", SessionID: clusterSess.SessionID, BaseHash: clusterSess.BaseHash})
	sessionStep("close", closeSingle, closeCluster)

	// Post-reshard reads find warm caches: with every key already solved
	// and handed off, re-posting the corpus hits rather than recomputes.
	hits := 0
	for i := range bodies {
		status, hdr, resp := post(t, c.RouterURL+"/v1/coalesce", bodies[i])
		if status != http.StatusOK {
			t.Fatalf("post-churn read %d: status %d: %s", i, status, resp)
		}
		if !bytes.Equal(resp, want[i]) {
			t.Fatalf("post-churn read %d differs from single-node", i)
		}
		if hdr.Get("X-Regcoal-Cache") == "hit" {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no cache hits after reshard; handoff left every owner cold")
	}
	requireFormsForwarded(t, c)
	requireCleanRebuilds(t, c)
}

// Kill a worker in the middle of its handoff window, with a fixed-seed
// fault plan dropping early internal cache/session pushes: the cluster
// must converge — clients still read byte-identical 200s — because
// reads fall back to surviving owners and recompute on a cold miss.
func TestKillDuringHandoffConverges(t *testing.T) {
	scfg := service.Config{Workers: 2, QueueCap: 128}
	_, single := startSingle(t, scfg)
	plan := &faultinject.Plan{
		Seed: 20070311,
		Rules: []faultinject.Rule{
			// Drop the first two internal cache/session pushes to every
			// peer from every component: the handoff stream and peer
			// fills start lossy and must retry or eat the miss.
			{Peer: "*", Mode: faultinject.ModeDrop, Side: faultinject.SideClient,
				Paths: []string{"/internal/cache", "/internal/session"}, From: 0, To: 2},
		},
	}
	c := startCluster(t, 3, cluster.InProcessOptions{Service: scfg, Fault: plan})

	insts := quickInstances(t)
	if len(insts) > 8 {
		insts = insts[:8]
	}
	bodies := make([][]byte, len(insts))
	want := make([][]byte, len(insts))
	for i, inst := range insts {
		bodies[i] = requestBody(t, inst.File)
		status, _, resp := post(t, single.URL+"/v1/coalesce", bodies[i])
		if status != http.StatusOK {
			t.Fatalf("single-node reference %d: status %d", i, status)
		}
		want[i] = resp
		status, _, resp = post(t, c.RouterURL+"/v1/coalesce", bodies[i])
		if status != http.StatusOK {
			t.Fatalf("warmup %d: status %d: %s", i, status, resp)
		}
		if !bytes.Equal(resp, want[i]) {
			t.Fatalf("warmup %d differs from single-node", i)
		}
	}

	// Remove the third worker and kill it before its handoff can finish:
	// the stream sources die mid-flight.
	victim := c.Workers[2]
	if _, err := c.UpdateTopology(nil, []string{victim.URL}); err != nil {
		t.Fatal(err)
	}
	if err := c.StopWorker(2); err != nil {
		t.Fatal(err)
	}

	// Every read still answers 200 with single-node bytes: surviving
	// owners serve from their own or handed-off cache, or recompute.
	for i := range bodies {
		status, _, resp := post(t, c.RouterURL+"/v1/coalesce", bodies[i])
		if status != http.StatusOK {
			t.Fatalf("post-kill read %d: status %d: %s", i, status, resp)
		}
		if !bytes.Equal(resp, want[i]) {
			t.Fatalf("post-kill read %d differs from single-node", i)
		}
	}
	if got := c.Router.Topology().Epoch(); got != 2 {
		t.Fatalf("router epoch %d, want 2", got)
	}
	rounds := int64(0)
	for _, w := range c.Workers[:2] {
		rounds += w.Service.Registry().Snapshot().Int("handoff_rounds")
	}
	if rounds == 0 {
		t.Fatal("no surviving worker ran a handoff round")
	}
}

// After a reshard, the handoff/epoch/migration metric families are
// present on both tiers and the whole exposition passes the strict
// Prometheus linter.
func TestReshardMetricsLintClean(t *testing.T) {
	c := startCluster(t, 2, cluster.InProcessOptions{})
	insts := quickInstances(t)
	for i := 0; i < 4; i++ {
		post(t, c.RouterURL+"/v1/coalesce", requestBody(t, insts[i].File))
	}
	w3, err := c.AddWorker()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.UpdateTopology([]string{w3.URL}, nil); err != nil {
		t.Fatal(err)
	}
	waitHandoffs(t, c)

	fetch := func(url string) string {
		t.Helper()
		resp, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return buf.String()
	}
	rm := fetch(c.RouterURL)
	for _, family := range []string{
		"regcoal_topology_epoch 2",
		"regcoal_router_topology_updates_total 1",
		"regcoal_router_topology_broadcast_failures_total",
	} {
		if !bytes.Contains([]byte(rm), []byte(family)) {
			t.Fatalf("router metrics missing %q:\n%s", family, rm)
		}
	}
	if problems := obs.LintPrometheus(rm); len(problems) > 0 {
		t.Fatalf("router metrics lint: %v", problems)
	}
	for _, w := range c.Workers {
		wm := fetch(w.URL)
		for _, family := range []string{
			"regcoal_topology_epoch 2",
			"regcoal_epoch_rejects_total",
			"regcoal_epoch_adoptions_total",
			"regcoal_handoff_entries_total",
			"regcoal_handoff_bytes_total",
			"regcoal_handoff_sessions_total",
			"regcoal_handoff_errors_total",
			"regcoal_handoff_rounds_total",
			"regcoal_handoff_active",
			"regcoal_session_log_gaps_total",
		} {
			if !bytes.Contains([]byte(wm), []byte(family)) {
				t.Fatalf("worker %s metrics missing %q", w.URL, family)
			}
		}
		if problems := obs.LintPrometheus(wm); len(problems) > 0 {
			t.Fatalf("worker %s metrics lint: %v", w.URL, problems)
		}
	}
}

// FuzzSessionLog throws arbitrary bytes at the session-log wire:
// malformed records, truncated or duplicated op logs, gapped suffixes,
// closes and wire-format mutations must come back as a 204, a
// structured 4xx or the gap 409 — never a 5xx, never a panic.
func FuzzSessionLog(f *testing.F) {
	scfg := service.Config{Workers: 1, QueueCap: 16}
	c, err := cluster.StartInProcess(1, cluster.InProcessOptions{Service: scfg})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(c.Close)
	target := c.Workers[0].URL + "/internal/session/log"

	spec := `{"vertices":4,"k":3,"edges":[[0,1],[1,2]]}`
	create := fmt.Sprintf(`{"op":"create","graph":%s}`, spec)
	delta := `{"deltas":[{"op":"add_vertex"}]}`
	f.Add([]byte(fmt.Sprintf(`{"session_id":"s-1","base_hash":"h","version":0,"create":%s}`, create)))
	f.Add([]byte(fmt.Sprintf(`{"session_id":"s-2","base_hash":"h","version":1,"create":%s,"deltas":[%s]}`, create, delta)))
	// Truncated log: version says 2, one delta present.
	f.Add([]byte(fmt.Sprintf(`{"session_id":"s-3","base_hash":"h","version":2,"create":%s,"deltas":[%s]}`, create, delta)))
	// Duplicated log: version says 1, two deltas present.
	f.Add([]byte(fmt.Sprintf(`{"session_id":"s-4","base_hash":"h","version":1,"create":%s,"deltas":[%s,%s]}`, create, delta, delta)))
	f.Add([]byte(`{"session_id":"","version":-9,"create":{}}`))
	f.Add([]byte(`{"session_id":"s-5","unknown_field":true}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))
	// A suffix continuing s-2's log, one leaving a gap after it, one with
	// no log to extend, and a close.
	f.Add([]byte(fmt.Sprintf(`{"session_id":"s-2","base_hash":"h","version":2,"deltas":[%s]}`, delta)))
	f.Add([]byte(fmt.Sprintf(`{"session_id":"s-2","base_hash":"h","version":5,"deltas":[%s]}`, delta)))
	f.Add([]byte(fmt.Sprintf(`{"session_id":"s-6","base_hash":"h","version":1,"deltas":[%s]}`, delta)))
	f.Add([]byte(`{"session_id":"s-2","base_hash":"h","version":0,"closed":true}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := http.Post(target, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode >= http.StatusInternalServerError {
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			t.Fatalf("session log answered %d for %q: %s", resp.StatusCode, data, buf.Bytes())
		}
	})
}
