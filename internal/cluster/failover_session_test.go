package cluster_test

// Session failover: a delta-solve session is primary-sticky, but its
// create/delta op log is replicated to the secondary of its base hash's
// replica set. Killing the primary mid-session must therefore degrade
// the session to "rebuildable", not "gone": the next delta routes to the
// secondary, which replays the log and answers the exact bytes the
// uninterrupted primary would have. The reference for "exact bytes" is a
// single-process service replaying the same log and applying the same
// batches. Two cases disturb the log on its way: a dropped push the
// secondary must catch up from, and a versioned batch sent as concurrent
// duplicates that the primary's singleflight collapses onto one apply,
// which each collapsed handler ships again.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	"regcoal/internal/cluster"
	"regcoal/internal/corpus"
	"regcoal/internal/faultinject"
	"regcoal/internal/service"
	"regcoal/internal/session"
)

func TestSessionFailoverRebuildsFromReplicatedLog(t *testing.T) {
	if testing.Short() {
		t.Skip("failover matrix runs full edit-script sessions per case")
	}
	scfg := service.Config{Workers: 2, QueueCap: 64}
	cases := []struct {
		family string
		kill   int // batches applied on the primary before it dies
		// dropPush drops the primary's 4th session-log push (the third
		// delta's record): the secondary must refuse the next record as
		// a gap and catch up from the primary's full log.
		dropPush bool
		// dupAfter > 0 fires batch dupAfter at the primary as concurrent
		// duplicates (see collapseOnPrimary) instead of once through the
		// router.
		dupAfter int
	}{
		{family: "chordal", kill: 3},
		{family: "chordal", kill: 6},
		{family: "ssa-pressure", kill: 1},
		{family: "ssa-pressure", kill: 5},
		{family: "chordal", kill: 6, dropPush: true},
		{family: "chordal", kill: 6, dupAfter: 2},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s-kill%d", tc.family, tc.kill)
		if tc.dropPush {
			name += "-droppush"
		}
		if tc.dupAfter > 0 {
			name += fmt.Sprintf("-dup%d", tc.dupAfter)
		}
		t.Run(name, func(t *testing.T) {
			// A minute-long ReadyTTL keeps the primary's readiness from the
			// create fresh, so the first delta after the kill always tries
			// the dead primary and retries, rather than probing it first
			// and failing over without a retry.
			opts := cluster.InProcessOptions{
				Service: scfg,
				Router:  cluster.RouterConfig{ReadyTTL: time.Minute},
			}
			if tc.dropPush {
				opts.Fault = &faultinject.Plan{Seed: 1, Rules: []faultinject.Rule{{
					Peer: "*", Mode: faultinject.ModeDrop, Side: faultinject.SideClient,
					Paths: []string{"/internal/session/log"}, From: 3, To: 4,
				}}}
			}
			c := startCluster(t, 3, opts)

			fams, err := corpus.Select(tc.family)
			if err != nil {
				t.Fatal(err)
			}
			insts, err := corpus.BuildAll(fams, corpus.Params{Seed: 20060408, Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			inst := insts[0]

			createBody, err := json.Marshal(service.DeltaRequest{Op: "create", Graph: specFromFileT(inst.File)})
			if err != nil {
				t.Fatal(err)
			}
			status, hdr, resp := post(t, c.RouterURL+"/v1/coalesce/delta", createBody)
			if status != http.StatusOK {
				t.Fatalf("create: status %d: %s", status, resp)
			}
			var created service.DeltaResponse
			if err := json.Unmarshal(resp, &created); err != nil {
				t.Fatal(err)
			}
			requireFormsForwarded(t, c)
			primary := hdr.Get("X-Regcoal-Shard")
			primaryIdx := -1
			var secondaryW *cluster.InProcessWorker
			replicas := c.Router.Ring().Replicas(created.BaseHash, cluster.DefaultReplicas)
			if len(replicas) != 2 || replicas[0] != primary {
				t.Fatalf("create landed on %s, replica set is %v", primary, replicas)
			}
			for i, w := range c.Workers {
				if w.URL == primary {
					primaryIdx = i
				}
				if w.URL == replicas[1] {
					secondaryW = w
				}
			}
			if primaryIdx < 0 || secondaryW == nil {
				t.Fatalf("could not resolve primary/secondary from %v", replicas)
			}

			// The uninterrupted reference: a single-process service seeded
			// with the same session (same id, via the replay path the
			// secondary itself uses) answering the same batches.
			refSvc, ref := startSingle(t, scfg)
			if err := replayLog(refSvc, created.SessionID, created.BaseHash, createBody); err != nil {
				t.Fatal(err)
			}

			script := corpus.GenEditScript(inst.File, inst.File.K, corpus.ScriptSeed(inst.File), 16)
			batches := make([][]session.Delta, 0, 8)
			for len(script) > 0 {
				n := min(2, len(script))
				batches = append(batches, script[:n])
				script = script[n:]
			}
			if tc.kill >= len(batches) {
				t.Fatalf("kill point %d outside the %d-batch script", tc.kill, len(batches))
			}

			for i, batch := range batches {
				if i == tc.kill {
					lag, ok := c.Workers[primaryIdx].Service.Registry().Snapshot().Labels("session_replica_lag")[secondaryW.URL]
					if !ok || lag != 0 {
						t.Fatalf("primary's replica lag for the secondary before the kill: %d (present %v), want 0", lag, ok)
					}
					if err := c.StopWorker(primaryIdx); err != nil {
						t.Fatal(err)
					}
				}
				v := int64(i)
				req := service.DeltaRequest{
					SessionID: created.SessionID,
					BaseHash:  created.BaseHash,
					Version:   &v,
					Deltas:    batch,
				}
				body, err := json.Marshal(req)
				if err != nil {
					t.Fatal(err)
				}
				wantStatus, _, want := post(t, ref.URL+"/v1/coalesce/delta", body)
				if wantStatus != http.StatusOK {
					t.Fatalf("reference delta %d: status %d: %s", i, wantStatus, want)
				}
				if i == tc.dupAfter && i > 0 {
					collapseOnPrimary(t, c.Workers[primaryIdx], created.SessionID, v, body, want)
					continue
				}
				gotStatus, ghdr, got := post(t, c.RouterURL+"/v1/coalesce/delta", body)
				if gotStatus != http.StatusOK {
					t.Fatalf("delta %d: status %d: %s", i, gotStatus, got)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("delta %d: cluster bytes differ from uninterrupted reference:\n%s\n%s", i, got, want)
				}
				shard := ghdr.Get("X-Regcoal-Shard")
				if i < tc.kill && shard != primary {
					t.Fatalf("delta %d landed on %s before the kill, want primary %s", i, shard, primary)
				}
				if i >= tc.kill && shard != secondaryW.URL {
					t.Fatalf("delta %d landed on %s after the kill, want secondary %s", i, shard, secondaryW.URL)
				}
			}
			wantGaps := int64(0)
			if tc.dropPush {
				wantGaps = 1
			}
			if gaps := secondaryW.Service.Registry().Snapshot().Int("session_log_gaps"); gaps != wantGaps {
				t.Fatalf("secondary refused %d records as gaps, want %d", gaps, wantGaps)
			}

			if rebuilds := secondaryW.Service.Registry().Snapshot().Int("session_rebuilds"); rebuilds != 1 {
				t.Fatalf("secondary rebuilt the session %d times, want exactly 1", rebuilds)
			}
			requireCleanRebuilds(t, c)
			if r := c.Router.Stats().Int("router_retries"); r == 0 {
				t.Fatal("no router retries recorded across a primary death")
			}

			// Close must survive failover too, and land on the secondary.
			closeBody, err := json.Marshal(service.DeltaRequest{
				Op: "close", SessionID: created.SessionID, BaseHash: created.BaseHash})
			if err != nil {
				t.Fatal(err)
			}
			status, chdr, cresp := post(t, c.RouterURL+"/v1/coalesce/delta", closeBody)
			if status != http.StatusOK {
				t.Fatalf("close after failover: status %d: %s", status, cresp)
			}
			if shard := chdr.Get("X-Regcoal-Shard"); shard != secondaryW.URL {
				t.Fatalf("close landed on %s, want secondary %s", shard, secondaryW.URL)
			}
		})
	}
}

// collapseOnPrimary fires n copies of one versioned batch at the
// session's primary at once, holding the session until every copy is in
// its handler, so the store's singleflight collapses them onto one
// apply. That apply is logged once and each collapsed handler ships the
// same record, which the replicas must take as duplicates. Every 200
// must carry the reference's bytes; a copy that reached the store after
// the apply gets the version conflict any late duplicate gets.
func collapseOnPrimary(t *testing.T, w *cluster.InProcessWorker, id string, version int64, body, want []byte) {
	t.Helper()
	const n = 8
	sess, err := w.Service.Sessions().Get(id)
	if err != nil {
		t.Fatal(err)
	}
	applies := w.Service.Registry().Snapshot().Int("session_applies")
	held, release := make(chan struct{}), make(chan struct{})
	go sess.View(func(*session.Solve) { close(held); <-release })
	<-held
	statuses, bodies := make([]int, n), make([][]byte, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(w.URL+"/v1/coalesce/delta", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("duplicate %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}()
	}
	// The apply cannot finish while the session is held; once every copy
	// is in its handler, the last ones are microseconds from the flight.
	for w.Service.Metrics().InFlight.Load() < n {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	late := fmt.Sprintf(`{"error":"version conflict: session at %d, request expects %d"}`, version+1, version)
	answered := 0
	for i := range n {
		switch {
		case statuses[i] == http.StatusOK && bytes.Equal(bodies[i], want):
			answered++
		case statuses[i] == http.StatusConflict && string(bodies[i]) == late:
		default:
			t.Fatalf("duplicate %d: (%d) %s, want the reference's bytes:\n%s", i, statuses[i], bodies[i], want)
		}
	}
	if answered < 2 {
		t.Fatalf("%d of %d concurrent duplicates answered 200: nothing collapsed", answered, n)
	}
	if got := w.Service.Registry().Snapshot().Int("session_applies") - applies; got != 1 {
		t.Fatalf("%d concurrent duplicates applied %d times, want once", n, got)
	}
}

// Read-your-writes across the replica set: an entry computed anywhere is
// pushed to every replica owner, so a client re-asking any replica gets
// a local cache hit, and only non-replicas pay a peer-fill hop.
func TestReplicatedPushGivesReadYourWrites(t *testing.T) {
	c := startCluster(t, 3, cluster.InProcessOptions{
		Service: service.Config{Workers: 2, QueueCap: 64},
	})
	insts := quickInstances(t)
	inst := insts[0] // chordal: WL-discriminated, relabel-invariant hash
	body := requestBody(t, inst.File)
	var req service.Request
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	replicas := c.Router.Ring().Replicas(service.RoutingHash(&req, 0), cluster.DefaultReplicas)
	if len(replicas) != 2 {
		t.Fatalf("replica set %v, want 2 owners", replicas)
	}

	status, _, want := post(t, c.RouterURL+"/v1/coalesce", body)
	if status != http.StatusOK {
		t.Fatalf("routed solve: status %d: %s", status, want)
	}

	var secondary, outsider *cluster.InProcessWorker
	for _, w := range c.Workers {
		switch {
		case w.URL == replicas[1]:
			secondary = w
		case !slices.Contains(replicas, w.URL):
			outsider = w
		}
	}
	if secondary == nil || outsider == nil {
		t.Fatalf("could not split secondary/outsider from %v", replicas)
	}

	// The secondary received the push on compute: local hit, no peer hop.
	status, hdr, got := post(t, secondary.URL+"/v1/coalesce", body)
	if status != http.StatusOK {
		t.Fatalf("secondary solve: status %d: %s", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("secondary bytes differ from routed bytes:\n%s\n%s", got, want)
	}
	if tier := hdr.Get("X-Regcoal-Tier"); tier != "local" {
		t.Fatalf("secondary tier %q, want local (pushed on compute)", tier)
	}
	if disp := hdr.Get("X-Regcoal-Cache"); disp != "hit" {
		t.Fatalf("secondary disposition %q, want hit", disp)
	}

	// A worker outside the replica set holds nothing and fills from an
	// owner instead of recomputing.
	status, hdr, got = post(t, outsider.URL+"/v1/coalesce", body)
	if status != http.StatusOK {
		t.Fatalf("outsider solve: status %d: %s", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("outsider bytes differ from routed bytes:\n%s\n%s", got, want)
	}
	if tier := hdr.Get("X-Regcoal-Tier"); tier != "peer" {
		t.Fatalf("outsider tier %q, want peer", tier)
	}
}
