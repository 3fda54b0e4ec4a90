package cluster_test

// Regression tests for a session's op log living with the session: each
// scenario once lost an acknowledged session or answered differently
// from a single node, because the log was kept apart from the session
// in a second store with its own order, eviction and no TTL.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"regcoal/internal/cluster"
	"regcoal/internal/service"
	"regcoal/internal/session"
)

// pathSpec is a 2-colorable graph with one affinity, (0, 2), that always
// coalesces: a session's coalesced weight is that affinity's weight.
func pathSpec() *service.GraphSpec {
	return &service.GraphSpec{Vertices: 4, K: 2,
		Edges: [][2]int{{0, 1}, {2, 3}},
		Moves: []service.Move{{X: 0, Y: 2, Weight: 1}}}
}

// twinSessions drives one session on a single node and one through a
// cluster with the same ops, and requires the same status and bytes
// from both, modulo each side's session id.
type twinSessions struct {
	t                  *testing.T
	singleURL, cluster string
	single, clustered  service.DeltaResponse
}

func (tw *twinSessions) create(spec *service.GraphSpec) {
	tw.t.Helper()
	body, err := json.Marshal(service.DeltaRequest{Op: "create", Graph: spec})
	if err != nil {
		tw.t.Fatal(err)
	}
	for _, side := range []struct {
		url  string
		resp *service.DeltaResponse
	}{{tw.singleURL, &tw.single}, {tw.cluster, &tw.clustered}} {
		status, _, got := post(tw.t, side.url+"/v1/coalesce/delta", body)
		if status != http.StatusOK {
			tw.t.Fatalf("create on %s: status %d: %s", side.url, status, got)
		}
		if err := json.Unmarshal(got, side.resp); err != nil {
			tw.t.Fatal(err)
		}
	}
}

// step sends op ("delta" or "close"; a delta at version when it is
// non-negative) to both sides and returns the cluster's status.
func (tw *twinSessions) step(name, op string, version int64, deltas ...session.Delta) int {
	tw.t.Helper()
	mk := func(s *service.DeltaResponse) []byte {
		req := service.DeltaRequest{Op: op, SessionID: s.SessionID, BaseHash: s.BaseHash, Deltas: deltas}
		if version >= 0 {
			req.Version = &version
		}
		b, err := json.Marshal(req)
		if err != nil {
			tw.t.Fatal(err)
		}
		return b
	}
	wantStatus, _, want := post(tw.t, tw.singleURL+"/v1/coalesce/delta", mk(&tw.single))
	gotStatus, _, got := post(tw.t, tw.cluster+"/v1/coalesce/delta", mk(&tw.clustered))
	want = bytes.ReplaceAll(want, []byte(tw.single.SessionID), []byte("<sid>"))
	got = bytes.ReplaceAll(got, []byte(tw.clustered.SessionID), []byte("<sid>"))
	if gotStatus != wantStatus || !bytes.Equal(got, want) {
		tw.t.Fatalf("%s: cluster (%d) differs from single node (%d):\n%s\n%s", name, gotStatus, wantStatus, got, want)
	}
	return gotStatus
}

// workerAt returns the index of the worker serving url.
func workerAt(t *testing.T, c *cluster.InProcess, url string) int {
	t.Helper()
	for i, w := range c.Workers {
		if w.URL == url {
			return i
		}
	}
	t.Fatalf("no worker at %q", url)
	return -1
}

// Concurrent unversioned deltas are logged in the order the primary
// applied them, so the primary keeps its log, and a replica replaying
// it after the primary's death ends at the state the last
// acknowledged write left. The deltas reweight one affinity: any two
// applied in the other order leave a different weight.
func TestConcurrentUnversionedDeltasSurviveFailover(t *testing.T) {
	const trials, n = 12, 64
	c := startCluster(t, 3, cluster.InProcessOptions{
		Service: service.Config{Workers: 2, QueueCap: 64},
		Router:  cluster.RouterConfig{ReadyTTL: time.Minute},
	})
	createBody, err := json.Marshal(service.DeltaRequest{Op: "create", Graph: pathSpec()})
	if err != nil {
		t.Fatal(err)
	}
	sessions := make([]service.DeltaResponse, trials)
	var primary string
	for i := range sessions {
		status, hdr, resp := post(t, c.RouterURL+"/v1/coalesce/delta", createBody)
		if status != http.StatusOK {
			t.Fatalf("create: status %d: %s", status, resp)
		}
		if err := json.Unmarshal(resp, &sessions[i]); err != nil {
			t.Fatal(err)
		}
		primary = hdr.Get("X-Regcoal-Shard") // one base graph: one primary
	}
	primaryIdx := workerAt(t, c, primary)

	// Connections stay open between sessions, and each session's deltas
	// start at once, so they reach the primary's handlers together.
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: n}}
	t.Cleanup(client.CloseIdleConnections)
	weights := make([]int64, trials) // per session, the weight its last write left
	for s, sess := range sessions {
		answers := make([]service.DeltaResponse, n)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				body, _ := json.Marshal(service.DeltaRequest{SessionID: sess.SessionID, BaseHash: sess.BaseHash,
					Deltas: []session.Delta{{Op: session.OpReweightAffinity, U: 0, V: 2, Weight: int64(i + 2)}}})
				<-start
				resp, err := client.Post(primary+"/v1/coalesce/delta", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("delta %d: %v", i, err)
					return
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("delta %d: status %d", i, resp.StatusCode)
					return
				}
				if err := json.NewDecoder(resp.Body).Decode(&answers[i]); err != nil {
					t.Errorf("delta %d: %v", i, err)
				}
			}()
		}
		close(start)
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		for _, a := range answers {
			if a.Version == n {
				weights[s] = a.Result.CoalescedWeight
			}
		}
		if weights[s] == 0 {
			t.Fatalf("session %d: no answer at version %d", s, n)
		}
	}
	if gaps := c.Workers[primaryIdx].Service.Registry().Snapshot().Int("session_log_gaps"); gaps != 0 {
		t.Fatalf("the primary refused %d of its own records as gaps, want 0", gaps)
	}

	if err := c.StopWorker(primaryIdx); err != nil {
		t.Fatal(err)
	}
	for s, sess := range sessions {
		v := int64(n)
		body, _ := json.Marshal(service.DeltaRequest{SessionID: sess.SessionID, BaseHash: sess.BaseHash,
			Version: &v, Deltas: []session.Delta{{Op: session.OpAddVertex}}})
		status, _, resp := post(t, c.RouterURL+"/v1/coalesce/delta", body)
		if status != http.StatusOK {
			t.Fatalf("session %d after failover: status %d: %s", s, status, resp)
		}
		var got service.DeltaResponse
		if err := json.Unmarshal(resp, &got); err != nil {
			t.Fatal(err)
		}
		if got.Version != n+1 || got.Result.CoalescedWeight != weights[s] {
			t.Fatalf("session %d after failover: version %d weight %d, want %d and %d (the last acknowledged write)",
				s, got.Version, got.Result.CoalescedWeight, n+1, weights[s])
		}
	}
}

// A primary removed from the ring and re-added after the new owner
// applied more ops holds a stale live copy; the newer log the handoff
// brings back retires it, so the next op answers as on a single node.
func TestReaddedPrimaryRetiresStaleSession(t *testing.T) {
	scfg := service.Config{Workers: 2, QueueCap: 64}
	_, single := startSingle(t, scfg)
	c := startCluster(t, 3, cluster.InProcessOptions{Service: scfg})
	tw := &twinSessions{t: t, singleURL: single.URL, cluster: c.RouterURL}
	tw.create(pathSpec())
	primary := c.Router.Ring().Replicas(tw.clustered.BaseHash, cluster.DefaultReplicas)[0]

	addVertex := session.Delta{Op: session.OpAddVertex}
	tw.step("v0", "delta", 0, addVertex)
	if _, err := c.UpdateTopology(nil, []string{primary}); err != nil {
		t.Fatal(err)
	}
	waitHandoffs(t, c)
	tw.step("v1 on the new owner", "delta", 1, session.Delta{Op: session.OpReweightAffinity, U: 0, V: 2, Weight: 7})
	tw.step("v2 on the new owner", "delta", 2, addVertex)
	if _, err := c.UpdateTopology([]string{primary}, nil); err != nil {
		t.Fatal(err)
	}
	waitHandoffs(t, c)
	if owner := c.Router.Ring().Replicas(tw.clustered.BaseHash, cluster.DefaultReplicas)[0]; owner != primary {
		t.Fatalf("re-adding %s made %s the owner", primary, owner)
	}
	tw.step("v3 on the re-added primary", "delta", 3, addVertex)
	tw.step("close", "close", -1)
	requireCleanRebuilds(t, c)
}

// An idle session expires by the TTL on its primary, as on a single
// node, and is not resurrected from a log.
func TestSessionTTLExpiryMatchesSingleNode(t *testing.T) {
	scfg := service.Config{Workers: 2, QueueCap: 64, SessionTTL: 200 * time.Millisecond}
	_, single := startSingle(t, scfg)
	c := startCluster(t, 3, cluster.InProcessOptions{Service: scfg})
	tw := &twinSessions{t: t, singleURL: single.URL, cluster: c.RouterURL}
	tw.create(pathSpec())
	time.Sleep(400 * time.Millisecond)
	if status := tw.step("delta after the TTL", "delta", 0, session.Delta{Op: session.OpAddVertex}); status != http.StatusNotFound {
		t.Fatalf("delta after the TTL: status %d, want 404", status)
	}
}

// A session the LRU cap evicted is gone on its primary, as on a single
// node, and is not resurrected from a log.
func TestSessionLRUEvictionMatchesSingleNode(t *testing.T) {
	scfg := service.Config{Workers: 2, QueueCap: 64, MaxSessions: 2}
	_, single := startSingle(t, scfg)
	c := startCluster(t, 1, cluster.InProcessOptions{Service: scfg})
	first := &twinSessions{t: t, singleURL: single.URL, cluster: c.RouterURL}
	first.create(pathSpec())
	for i := 0; i < 2; i++ {
		(&twinSessions{t: t, singleURL: single.URL, cluster: c.RouterURL}).create(pathSpec())
	}
	if status := first.step("delta on the evicted session", "delta", 0, session.Delta{Op: session.OpAddVertex}); status != http.StatusNotFound {
		t.Fatalf("delta on the evicted session: status %d, want 404", status)
	}
}

// Evicting one session costs no other session its log: a live session
// under eviction pressure keeps replicating, and survives its primary's
// death.
func TestLiveSessionKeepsLogUnderEviction(t *testing.T) {
	scfg := service.Config{Workers: 2, QueueCap: 64, MaxSessions: 2}
	_, single := startSingle(t, scfg)
	c := startCluster(t, 3, cluster.InProcessOptions{
		Service: scfg,
		Router:  cluster.RouterConfig{ReadyTTL: time.Minute},
	})
	twins := make([]*twinSessions, 3)
	for i := range twins {
		twins[i] = &twinSessions{t: t, singleURL: single.URL, cluster: c.RouterURL}
		twins[i].create(pathSpec()) // one base graph: one primary, one secondary
	}
	s2 := twins[1]
	replicas := c.Router.Ring().Replicas(s2.clustered.BaseHash, cluster.DefaultReplicas)
	addVertex := session.Delta{Op: session.OpAddVertex}
	s2.step("s2 v0", "delta", 0, addVertex)
	for _, url := range replicas {
		if gaps := c.Workers[workerAt(t, c, url)].Service.Registry().Snapshot().Int("session_log_gaps"); gaps != 0 {
			t.Fatalf("%s refused %d records as gaps, want 0", url, gaps)
		}
	}
	if err := c.StopWorker(workerAt(t, c, replicas[0])); err != nil {
		t.Fatal(err)
	}
	s2.step("s2 v1 after the primary's death", "delta", 1, addVertex)
	secondary := c.Workers[workerAt(t, c, replicas[1])].Service.Registry().Snapshot()
	if rebuilds := secondary.Int("session_rebuilds"); rebuilds != 1 {
		t.Fatalf("secondary rebuilt %d sessions, want 1", rebuilds)
	}
	requireCleanRebuilds(t, c)
}
