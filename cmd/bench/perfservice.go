package main

// The -perf -group service kernel suite: measures the end-to-end request
// path of the online service rather than isolated solver kernels. Each
// per-family kernel drives the real HTTP handler in process (no network)
// over a deterministic corpus instance:
//
//   - svc-decode/<family>:  JSON request decode → graph build (the parse
//     side of the request path, no solving)
//   - svc-solve/<family>:   full decode → canonicalize → portfolio race →
//     encode with the cache bypassed (the steady-state compute path)
//   - svc-cached/<family>:  the same request answered from the canonical
//     result cache (decode → canonicalize → hash lookup → encode)
//   - svc-spill/<family>:   the spill endpoint on the high-pressure
//     families (decode → spill race → encode)
//   - svc-delta/<family>:   one warm-session delta apply on the
//     /v1/coalesce/delta endpoint (decode → validate → toggle one edge →
//     memoized incremental re-solve → encode); the contrast against
//     svc-solve/<family> is what the per-edit session path saves over
//     re-solving the instance from scratch
//
// plus two loadgen-driven kernel sets produced by the same concurrent,
// response-validating replayer that cmd/loadgen uses:
//
//   - svc-loadgen/*: against a single in-process HTTP server —
//     {mean,p50,p99} report per-request latency in ns/op, and
//     inv-throughput reports wall-clock per request (inverse QPS at the
//     kernel's fixed concurrency; it also carries ops_per_sec and the
//     run's cache hit rate)
//   - cluster-loadgen/*: the same workload through the sharded serving
//     tier (internal/cluster: one router in front of three workers, all
//     on loopback), measuring what consistent-hash routing, the tiered
//     cache, and batch-free request fan-out cost end to end
//
// Instances are drawn from the deterministic corpus families with a fixed
// seed, so kernel names and workloads are stable across commits; sizes
// change only with a serviceSuiteVersion bump.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"regcoal/internal/cluster"
	"regcoal/internal/corpus"
	"regcoal/internal/graph"
	"regcoal/internal/service"
	"regcoal/internal/service/loadgen"
	"regcoal/internal/session"
)

// serviceSuiteVersion bumps whenever service kernel names, seeds, or
// instance choices change, invalidating cross-version comparisons.
// v2: added the svc-delta/<family> warm-session kernels.
const serviceSuiteVersion = 2

// serviceSuiteSeed pins the corpus build the service kernels run over.
const serviceSuiteSeed = 0x5eed5e21

// serviceFamilies are the corpus families the per-request kernels cover:
// the two structured classes the paper cares about (chordal/SSA,
// interval), a dense adversarial class, and a high-pressure class that
// exercises the spill path.
var serviceFamilies = []string{"chordal", "interval", "er-dense", "ssa-pressure"}

// spillFamilies is the subset whose pressure exceeds k, where the spill
// endpoint has real work.
var spillFamilies = map[string]bool{"ssa-pressure": true, "er-dense": true}

// serviceInstance is one family's representative instance with its
// prebuilt request bodies.
type serviceInstance struct {
	family    string
	file      *graph.File
	solveBody []byte // no_cache: measures the compute path
	cacheBody []byte // cacheable: measures the hit path after priming
}

// serviceInstances builds one representative instance per family — the
// last (largest) instance the family generates, deterministic in the
// fixed seed.
func serviceInstances(quick bool) ([]serviceInstance, error) {
	out := make([]serviceInstance, 0, len(serviceFamilies))
	for _, name := range serviceFamilies {
		fams, err := corpus.Select(name)
		if err != nil {
			return nil, err
		}
		insts, err := corpus.BuildAll(fams, corpus.Params{Seed: serviceSuiteSeed, Quick: quick})
		if err != nil {
			return nil, err
		}
		if len(insts) == 0 {
			return nil, fmt.Errorf("perf: family %s generated no instances", name)
		}
		inst := insts[len(insts)-1]
		solve, err := loadgen.JobsFromInstances([]*corpus.Instance{inst}, loadgen.JobOptions{
			Format: "native", NoCache: true, DeadlineMS: 500,
		})
		if err != nil {
			return nil, err
		}
		cached, err := loadgen.JobsFromInstances([]*corpus.Instance{inst}, loadgen.JobOptions{
			Format: "native", DeadlineMS: 500,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, serviceInstance{
			family:    name,
			file:      inst.File,
			solveBody: solve[0].Body,
			cacheBody: cached[0].Body,
		})
	}
	return out, nil
}

// post drives the handler in process and panics on a non-200, so a broken
// service fails the suite loudly instead of timing error paths.
func post(h http.Handler, path string, body []byte) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		panic(fmt.Sprintf("perf: %s answered %d: %s", path, rec.Code, rec.Body.String()))
	}
}

// deltaTogglePair finds the first non-adjacent vertex pair of g — the
// edge the svc-delta kernel toggles. Deterministic in the graph, so the
// kernel workload is stable across runs.
func deltaTogglePair(g *graph.Graph) (graph.V, graph.V, bool) {
	n := graph.V(g.N())
	for u := graph.V(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !g.HasEdge(u, v) {
				return u, v, true
			}
		}
	}
	return 0, 0, false
}

// postDelta drives /v1/coalesce/delta in process and decodes the
// response, panicking on a non-200 like post.
func postDelta(h http.Handler, body []byte) service.DeltaResponse {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/coalesce/delta", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		panic(fmt.Sprintf("perf: /v1/coalesce/delta answered %d: %s", rec.Code, rec.Body.String()))
	}
	var resp service.DeltaResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		panic(err)
	}
	return resp
}

// deltaKernel pins one warm session per family and returns a kernel that
// toggles a single non-edge per op: decode → validate → apply → memoized
// incremental re-solve → encode. Both toggle states are primed, so the
// steady state the kernel measures is the session memo-hit path.
func deltaKernel(h http.Handler, inst serviceInstance) (kernel, error) {
	u, v, ok := deltaTogglePair(inst.file.G)
	if !ok {
		return kernel{}, fmt.Errorf("perf: %s instance is complete, no edge to toggle", inst.family)
	}
	var req service.Request
	if err := json.Unmarshal(inst.solveBody, &req); err != nil {
		return kernel{}, err
	}
	createBody, err := json.Marshal(service.DeltaRequest{Op: "create", Graph: req.Graph, K: req.K})
	if err != nil {
		return kernel{}, err
	}
	sess := postDelta(h, createBody)
	addBody, err := json.Marshal(service.DeltaRequest{SessionID: sess.SessionID,
		Deltas: []session.Delta{{Op: session.OpAddEdge, U: int(u), V: int(v)}}})
	if err != nil {
		return kernel{}, err
	}
	delBody, err := json.Marshal(service.DeltaRequest{SessionID: sess.SessionID,
		Deltas: []session.Delta{{Op: session.OpRemoveEdge, U: int(u), V: int(v)}}})
	if err != nil {
		return kernel{}, err
	}
	for i := 0; i < 4; i++ {
		post(h, "/v1/coalesce/delta", addBody)
		post(h, "/v1/coalesce/delta", delBody)
	}
	add := true
	return kernel{"svc-delta/" + inst.family, func() {
		if add {
			post(h, "/v1/coalesce/delta", addBody)
		} else {
			post(h, "/v1/coalesce/delta", delBody)
		}
		add = !add
	}}, nil
}

// serviceKernels measures the service suite. The server is the real
// service.Server with default configuration; per-request kernels bypass
// the network by invoking the handler directly.
func serviceKernels(quick bool) ([]PerfKernel, error) {
	insts, err := serviceInstances(quick)
	if err != nil {
		return nil, err
	}
	svc, err := service.New(service.Config{})
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	h := svc.Handler()

	var kernels []kernel
	for i := range insts {
		inst := insts[i]
		kernels = append(kernels,
			kernel{"svc-decode/" + inst.family, func() {
				var req service.Request
				if err := json.Unmarshal(inst.solveBody, &req); err != nil {
					panic(err)
				}
				if _, err := req.Graph.ToFile(0); err != nil {
					panic(err)
				}
			}},
			kernel{"svc-solve/" + inst.family, func() {
				post(h, "/v1/coalesce", inst.solveBody)
			}},
			kernel{"svc-cached/" + inst.family, func() {
				post(h, "/v1/coalesce", inst.cacheBody)
			}},
		)
		if spillFamilies[inst.family] {
			kernels = append(kernels, kernel{"svc-spill/" + inst.family, func() {
				post(h, "/v1/spill", inst.solveBody)
			}})
		}
		dk, err := deltaKernel(h, inst)
		if err != nil {
			return nil, err
		}
		kernels = append(kernels, dk)
	}
	// Prime the cache so every svc-cached op is a hit.
	for _, inst := range insts {
		post(h, "/v1/coalesce", inst.cacheBody)
	}
	out := measureKernels(kernels)

	lg, err := loadgenKernels(svc, insts, quick)
	if err != nil {
		return nil, err
	}
	out = append(out, lg...)

	cl, err := clusterKernels(insts, quick)
	if err != nil {
		return nil, err
	}
	return append(out, cl...), nil
}

// loadgenJobs converts the suite instances into the replayer's job shape.
func loadgenJobs(insts []serviceInstance) []loadgen.Job {
	var jobs []loadgen.Job
	for _, inst := range insts {
		jobs = append(jobs, loadgen.Job{Name: inst.family, Body: inst.cacheBody, File: inst.file})
	}
	return jobs
}

// loadgenRequests is the replay length: enough passes over the instance
// set that the cache-hit steady state dominates the cold misses.
func loadgenRequests(jobs int, quick bool) int {
	if quick {
		return 8 * jobs
	}
	return 24 * jobs
}

// runLoadgenKernels fires the replayer at baseURL and packages the report
// as the four <prefix>/{inv-throughput,mean,p50,p99} kernels.
// inv-throughput is wall-clock per request (1/QPS at this kernel's fixed
// concurrency) — deliberately NOT named a latency; mean/p50/p99 are the
// real per-request latency distribution. The inv-throughput kernel also
// carries the run's cache hit rate (hits + singleflight collapses over
// successful requests): a throughput shift with a hit-rate shift is a
// caching change, not a solver change.
func runLoadgenKernels(prefix, baseURL string, jobs []loadgen.Job, quick bool) ([]PerfKernel, error) {
	report, err := loadgen.Run(context.Background(), loadgen.Options{
		BaseURL:     baseURL,
		Endpoint:    "coalesce",
		Concurrency: 8,
		Requests:    loadgenRequests(len(jobs), quick),
		Client:      &http.Client{Timeout: 60 * time.Second},
	}, jobs)
	if err != nil {
		return nil, err
	}
	if report.Failed > 0 {
		return nil, fmt.Errorf("perf: %s kernel had %d failed requests: %s", prefix, report.Failed, report.FirstFailure)
	}
	hitRate := 0.0
	if report.OK > 0 {
		hitRate = round2(float64(report.CacheHits+report.Collapsed) / float64(report.OK))
	}
	var phaseNS map[string]float64
	if len(report.Phases) > 0 {
		phaseNS = make(map[string]float64, len(report.Phases))
		for name, p := range report.Phases {
			phaseNS[name] = float64(p.P50.Nanoseconds())
		}
	}
	return []PerfKernel{
		{Name: prefix + "/inv-throughput", NsPerOp: float64(report.Wall.Nanoseconds()) / float64(report.Requests),
			OpsPerSec: round2(report.Throughput()), HitRate: hitRate, PhaseNS: phaseNS},
		{Name: prefix + "/mean", NsPerOp: float64(report.Latencies.Mean.Nanoseconds())},
		{Name: prefix + "/p50", NsPerOp: float64(report.Latencies.P50.Nanoseconds())},
		{Name: prefix + "/p99", NsPerOp: float64(report.Latencies.P99.Nanoseconds())},
	}, nil
}

// loadgenKernels runs the concurrent replayer against an in-process HTTP
// server and reports throughput and latency percentiles as kernels.
func loadgenKernels(svc *service.Server, insts []serviceInstance, quick bool) ([]PerfKernel, error) {
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	return runLoadgenKernels("svc-loadgen", ts.URL, loadgenJobs(insts), quick)
}

// clusterWorkers is the shard count of the cluster bench scenario.
const clusterWorkers = 3

// clusterKernels runs the same replay through the sharded serving tier:
// one router fronting three workers on loopback, each worker a full
// service with its own pool and cache. The delta against svc-loadgen/* is
// the cost of the distribution layer — routing hop, readiness probes, and
// tiered-cache traffic — under an identical workload.
func clusterKernels(insts []serviceInstance, quick bool) ([]PerfKernel, error) {
	c, err := cluster.StartInProcess(clusterWorkers, cluster.InProcessOptions{})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return runLoadgenKernels("cluster-loadgen", c.RouterURL, loadgenJobs(insts), quick)
}

// serviceKernelNames lists the service suite's kernel names without
// running anything (used by tests to pin the suite shape).
func serviceKernelNames() []string {
	var names []string
	for _, f := range serviceFamilies {
		names = append(names, "svc-decode/"+f, "svc-solve/"+f, "svc-cached/"+f)
		if spillFamilies[f] {
			names = append(names, "svc-spill/"+f)
		}
		names = append(names, "svc-delta/"+f)
	}
	for _, prefix := range []string{"svc-loadgen", "cluster-loadgen"} {
		names = append(names, prefix+"/inv-throughput", prefix+"/mean", prefix+"/p50", prefix+"/p99")
	}
	return names
}
