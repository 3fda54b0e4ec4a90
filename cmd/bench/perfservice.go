package main

// The -perf -group service kernel suite: measures the end-to-end request
// path of the online service rather than isolated solver kernels. Each
// per-family kernel drives the real HTTP handler in process (no network)
// over a deterministic corpus instance:
//
//   - svc-decode/<family>:  strict encoding/json decode → GraphSpec.ToFile
//     graph build, the path a batch item or a body the one-pass scanner
//     declines takes (no solving; the scanner's own kernel is
//     BenchmarkDecodeRequest in internal/service)
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
// Throughput and latency under concurrent load, single node and through
// the cluster, are servebench's to measure (BENCHMARK.json): it scales
// every time to a reference host speed and validates every answer.
//
// Instances are drawn from the deterministic corpus families with a fixed
// seed, so kernel names and workloads are stable across commits; sizes
// change only with a serviceSuiteVersion bump.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"

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
	return measureKernels(kernels), nil
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
	return names
}
