package cluster_test

// Observability integration tests: the trace ID threads router → worker,
// the ?trace=1 splice departs from byte-identity only by appending the
// trace object, every /metrics surface survives the strict Prometheus
// linter, and a deadline-hit race leaves its complete member timeline on
// /debug/requests.

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"regcoal/internal/cluster"
	"regcoal/internal/graph"
	"regcoal/internal/obs"
	"regcoal/internal/service"
)

// denseRaceBody builds the dense branch-and-bound instance whose race
// runs long enough to hit a short deadline deterministically.
func denseRaceBody(t *testing.T, deadlineMS int64) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	g := graph.RandomER(rng, 48, 0.4)
	graph.SprinkleAffinities(rng, g, 14, 100)
	body, err := json.Marshal(&service.Request{
		Graph:      specFromFileT(&graph.File{G: g, K: 6}),
		DeadlineMS: deadlineMS,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestTraceIDThreadsRouterToWorker(t *testing.T) {
	c := startCluster(t, 3, cluster.InProcessOptions{})
	insts := quickInstances(t)
	body := requestBody(t, insts[0].File)

	// Without an inbound ID the router mints one and both router and
	// worker answer with it.
	status, hdr, _ := post(t, c.RouterURL+"/v1/coalesce", body)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	id := hdr.Get(service.TraceIDHeader)
	if _, ok := obs.ParseTraceID(id); !ok {
		t.Fatalf("router answered with invalid trace ID %q", id)
	}

	// A client-supplied ID is adopted end to end.
	const want = "00112233445566778899aabbccddeeff"
	req, err := http.NewRequest(http.MethodPost, c.RouterURL+"/v1/allocate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(service.TraceIDHeader, want)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(service.TraceIDHeader); got != want {
		t.Fatalf("trace ID not adopted: got %q, want %q", got, want)
	}

	// The adopted ID is findable in some worker's recent ring: the solve
	// actually ran under the propagated identity.
	found := false
	for _, w := range c.Workers {
		for _, v := range w.Service.Tracer().Recent(64) {
			if v.ID == want {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("trace %s not recorded on any worker's recent ring", want)
	}
}

func TestTraceSpliceLeavesBaselineBytesUntouched(t *testing.T) {
	c := startCluster(t, 3, cluster.InProcessOptions{})
	insts := quickInstances(t)
	body := requestBody(t, insts[0].File)

	status, _, plain := post(t, c.RouterURL+"/v1/coalesce", body)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	status, _, traced := post(t, c.RouterURL+"/v1/coalesce?trace=1", body)
	if status != http.StatusOK {
		t.Fatalf("traced status %d", status)
	}
	if bytes.Equal(plain, traced) {
		t.Fatal("?trace=1 did not change the body")
	}
	// The splice appends before the final brace: every baseline byte up
	// to the closing '}' is untouched.
	if !bytes.HasPrefix(traced, plain[:len(plain)-1]) {
		t.Fatalf("traced body does not extend the baseline body:\nplain  %s\ntraced %s", plain, traced)
	}
	var withTrace struct {
		Trace *obs.TraceView `json:"trace"`
	}
	if err := json.Unmarshal(traced, &withTrace); err != nil {
		t.Fatalf("traced body is not valid JSON: %v", err)
	}
	if withTrace.Trace == nil || withTrace.Trace.ID == "" {
		t.Fatalf("traced body carries no trace object: %s", traced)
	}
	if len(withTrace.Trace.Phases) == 0 {
		t.Fatalf("trace has no phase spans: %s", traced)
	}

	// And the plain body through the cluster stays byte-identical to a
	// single process answering the same request with tracing live.
	_, single := startSingle(t, service.Config{})
	status, _, want := post(t, single.URL+"/v1/coalesce", body)
	if status != http.StatusOK {
		t.Fatalf("single status %d", status)
	}
	if !bytes.Equal(plain, want) {
		t.Fatalf("cluster body diverged from single-process body:\ncluster %s\nsingle  %s", plain, want)
	}
}

func TestPrometheusSurfacesPassStrictLint(t *testing.T) {
	c := startCluster(t, 2, cluster.InProcessOptions{})
	insts := quickInstances(t)

	// Drive enough traffic to populate every family: solves, cache hits,
	// a batch, a deadline hit, and a bad request.
	for _, inst := range insts[:3] {
		body := requestBody(t, inst.File)
		post(t, c.RouterURL+"/v1/coalesce", body)
		post(t, c.RouterURL+"/v1/coalesce", body)
	}
	post(t, c.RouterURL+"/v1/spill", requestBody(t, insts[0].File))
	post(t, c.RouterURL+"/v1/coalesce", denseRaceBody(t, 1))
	post(t, c.RouterURL+"/v1/coalesce", []byte(`{"nope":1}`))
	breq, _ := json.Marshal(&service.BatchSolveRequest{Kind: "coalesce", Items: []service.Request{
		{Graph: specFromFileT(insts[0].File)}, {Graph: specFromFileT(insts[1].File)},
	}})
	post(t, c.RouterURL+"/v1/batch", breq)

	_, single := startSingle(t, service.Config{})
	post(t, single.URL+"/v1/allocate", requestBody(t, insts[0].File))

	surfaces := map[string]string{
		"router":  c.RouterURL,
		"worker0": c.Workers[0].URL,
		"worker1": c.Workers[1].URL,
		"service": single.URL,
	}
	for name, base := range surfaces {
		status, _, payload := get(t, base+"/metrics")
		if status != http.StatusOK {
			t.Fatalf("%s: /metrics status %d", name, status)
		}
		if problems := obs.LintPrometheus(string(payload)); len(problems) > 0 {
			t.Errorf("%s /metrics fails lint:\n  %s", name, strings.Join(problems, "\n  "))
		}

		// Every node, the router included, exports the runtime families.
		if !strings.Contains(string(payload), "\nregcoal_goroutines ") {
			t.Errorf("%s /metrics carries no regcoal_goroutines", name)
		}

		// /stats and /metrics render the same registry: every family on
		// /metrics has its key on /stats, and every /stats key names a
		// /metrics family.
		status, _, statsBody := get(t, base+"/stats")
		if status != http.StatusOK {
			t.Fatalf("%s: /stats status %d", name, status)
		}
		var stats map[string]json.RawMessage
		if err := json.Unmarshal(statsBody, &stats); err != nil {
			t.Fatalf("%s: /stats: %v", name, err)
		}
		keys := map[string]bool{}
		for _, f := range typedFamilies(string(payload)) {
			keys[obs.StatsKey(f)] = true
			if _, ok := stats[obs.StatsKey(f)]; !ok {
				t.Errorf("%s: /metrics family %s has no /stats key %q", name, f, obs.StatsKey(f))
			}
		}
		for key := range stats {
			if !keys[key] {
				t.Errorf("%s: /stats key %q matches no /metrics family", name, key)
			}
		}
	}
}

// typedFamilies lists the families a Prometheus payload declares with
// # TYPE lines.
func typedFamilies(payload string) []string {
	var out []string
	for _, line := range strings.Split(payload, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			out = append(out, strings.Fields(rest)[0])
		}
	}
	return out
}

func TestDeadlineHitRaceTimelineOnDebugRequests(t *testing.T) {
	_, single := startSingle(t, service.Config{})
	body := denseRaceBody(t, 1)

	status, hdr, respBody := post(t, single.URL+"/v1/coalesce?trace=1", body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, respBody)
	}
	id := hdr.Get(service.TraceIDHeader)

	var out struct {
		DeadlineHit bool           `json:"deadline_hit"`
		Trace       *obs.TraceView `json:"trace"`
	}
	if err := json.Unmarshal(respBody, &out); err != nil {
		t.Fatal(err)
	}
	if !out.DeadlineHit {
		t.Skip("race finished inside a 1ms deadline on this machine")
	}
	if out.Trace == nil || len(out.Trace.Race) == 0 {
		t.Fatalf("?trace=1 body carries no race timeline: %s", respBody)
	}

	// The same timeline is on /debug/requests, complete: every member
	// has a start/end and a state, at least one was cut off by the
	// deadline, and the recorded winner appears among the members.
	resp, err := http.Get(single.URL + "/debug/requests?view=recent&n=64")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var debug struct {
		View     string          `json:"view"`
		Requests []obs.TraceView `json:"requests"`
	}
	if err := json.Unmarshal(data, &debug); err != nil {
		t.Fatalf("decoding /debug/requests: %v\n%s", err, data)
	}
	views := debug.Requests
	var tr *obs.TraceView
	for i := range views {
		if views[i].ID == id {
			tr = &views[i]
		}
	}
	if tr == nil {
		t.Fatalf("trace %s not on /debug/requests recent ring", id)
	}
	if !tr.DeadlineHit {
		t.Fatalf("trace %s not marked deadline_hit: %+v", id, tr)
	}
	if len(tr.Race) == 0 {
		t.Fatalf("trace %s has no member timeline", id)
	}
	cutoff, winner := false, false
	for _, m := range tr.Race {
		if m.Strategy == "" || m.State == "" {
			t.Fatalf("incomplete member span: %+v", m)
		}
		if m.EndNS < m.StartNS {
			t.Fatalf("member %s ends before it starts: %+v", m.Strategy, m)
		}
		if m.State == "cutoff" {
			cutoff = true
		}
		if m.State == "won" {
			winner = true
			if tr.Winner != m.Strategy {
				t.Fatalf("winner mismatch: trace says %q, member timeline says %q", tr.Winner, m.Strategy)
			}
		}
	}
	if !winner {
		t.Fatalf("no member marked won: %+v", tr.Race)
	}
	if !cutoff {
		t.Fatalf("deadline-hit race has no cutoff member: %+v", tr.Race)
	}

	// The text rendering names the same race, for humans with curl.
	resp, err = http.Get(single.URL + "/debug/requests?view=recent&format=text&n=64")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(text), id) {
		t.Fatalf("text view missing trace %s:\n%s", id, text)
	}
}

// TestRouterShardMetricsFamilies checks satellite coverage: the router
// exports per-shard counters and latency histograms that lint cleanly
// and agree with /stats.
func TestRouterShardMetricsFamilies(t *testing.T) {
	c := startCluster(t, 3, cluster.InProcessOptions{})
	insts := quickInstances(t)
	for _, inst := range insts[:4] {
		post(t, c.RouterURL+"/v1/coalesce", requestBody(t, inst.File))
	}

	st := c.Router.Stats()
	forwarded := st.Labels("router_shard_requests")
	latency, _ := st["router_shard_latency_seconds"].(map[string]obs.QuantileSummary)
	if len(forwarded) == 0 {
		t.Fatal("no per-shard stats after traffic")
	}
	var total int64
	for node, fwd := range forwarded {
		if fwd <= 0 {
			t.Fatalf("shard %s has zero forwarded despite being listed", node)
		}
		if int64(latency[node].Count) != fwd {
			t.Fatalf("shard %s latency count %d != forwarded %d", node, latency[node].Count, fwd)
		}
		total += fwd
	}
	if total != st.Int("router_proxied") {
		t.Fatalf("per-shard forwarded sums to %d, proxied is %d", total, st.Int("router_proxied"))
	}

	resp, err := http.Get(c.RouterURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(payload)
	for _, family := range []string{
		"regcoal_router_shard_requests_total",
		"regcoal_router_shard_failovers_total",
		"regcoal_router_shard_fallback_total",
		"regcoal_router_shard_latency_seconds_bucket",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("router /metrics missing %s", family)
		}
	}
	if problems := obs.LintPrometheus(text); len(problems) > 0 {
		t.Errorf("router /metrics fails lint:\n  %s", strings.Join(problems, "\n  "))
	}
}

// TestWorkerPhasesHeaderThroughRouter checks the X-Regcoal-Phases
// breakdown survives the proxy hop and parses into the known phases.
func TestWorkerPhasesHeaderThroughRouter(t *testing.T) {
	c := startCluster(t, 2, cluster.InProcessOptions{})
	insts := quickInstances(t)
	status, hdr, _ := post(t, c.RouterURL+"/v1/coalesce", requestBody(t, insts[0].File))
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	phases := obs.ParsePhases(hdr.Get(service.PhasesHeader))
	if len(phases) == 0 {
		t.Fatalf("no phases header through router (got %q)", hdr.Get(service.PhasesHeader))
	}
	for _, want := range []string{"decode", "canon"} {
		if _, ok := phases[want]; !ok {
			t.Errorf("phases header missing %s: %v", want, phases)
		}
	}
	for name, ns := range phases {
		if ns < 0 {
			t.Errorf("phase %s negative duration %d", name, ns)
		}
		if obs.ParsePhase(name) == obs.NumPhases {
			t.Errorf("unknown phase %q in header", name)
		}
	}
	assertNoRepeatedPhase(t, hdr.Get(service.PhasesHeader))

	// A non-owner (R = 1) misses locally and fills from the owner: the
	// one path that looks up the local cache twice must still report
	// each phase once (ParsePhases keeps only the last duplicate).
	r1 := startCluster(t, 2, cluster.InProcessOptions{
		Worker: cluster.WorkerConfig{Replicas: 1},
		Router: cluster.RouterConfig{Replicas: 1},
	})
	body := requestBody(t, insts[0].File)
	var req service.Request
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	owner := r1.Router.Ring().Owner(service.RoutingHash(&req, 0))
	post(t, owner+"/v1/coalesce", body)
	for _, w := range r1.Workers {
		if w.URL == owner {
			continue
		}
		status, hdr, _ = post(t, w.URL+"/v1/coalesce", body)
		if status != http.StatusOK || hdr.Get("X-Regcoal-Tier") != "peer" {
			t.Fatalf("non-owner: status %d, tier %q, want a peer fill", status, hdr.Get("X-Regcoal-Tier"))
		}
		if _, ok := obs.ParsePhases(hdr.Get(service.PhasesHeader))["peer"]; !ok {
			t.Errorf("peer-filled response reports no peer phase: %q", hdr.Get(service.PhasesHeader))
		}
		assertNoRepeatedPhase(t, hdr.Get(service.PhasesHeader))
	}

	// A single node has no tier: no peer phase, no tier header.
	_, single := startSingle(t, service.Config{})
	status, hdr, _ = post(t, single.URL+"/v1/coalesce", requestBody(t, insts[0].File))
	if status != http.StatusOK {
		t.Fatalf("single-node status %d", status)
	}
	if _, ok := obs.ParsePhases(hdr.Get(service.PhasesHeader))["peer"]; ok {
		t.Errorf("single-node response carries a peer phase: %q", hdr.Get(service.PhasesHeader))
	}
	if tier := hdr.Get("X-Regcoal-Tier"); tier != "" {
		t.Errorf("single-node response carries X-Regcoal-Tier %q", tier)
	}
}

// assertNoRepeatedPhase fails when a phase name appears twice in an
// X-Regcoal-Phases value.
func assertNoRepeatedPhase(t *testing.T, header string) {
	t.Helper()
	seen := map[string]bool{}
	for _, seg := range strings.Split(header, ";") {
		name, _, _ := strings.Cut(seg, "=")
		if seen[name] {
			t.Errorf("phase %q appears twice in %q", name, header)
		}
		seen[name] = true
	}
}
