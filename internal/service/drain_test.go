package service_test

// Satellite coverage for the serving-tier PR: liveness/readiness split,
// graceful drain of in-flight batch work, and the cache/singleflight
// counter surface on /metrics and /stats.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"regcoal/internal/graph"
	"regcoal/internal/service"
	"regcoal/internal/service/loadgen"
)

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func TestReadinessSplitsFromLiveness(t *testing.T) {
	s, ts := startService(t, service.Config{Workers: 2})
	for _, ep := range []string{"/healthz", "/livez", "/readyz"} {
		if st, body := get(t, ts.URL+ep); st != http.StatusOK {
			t.Fatalf("%s before drain: %d: %s", ep, st, body)
		}
	}
	s.BeginDrain()
	if st, _ := get(t, ts.URL+"/livez"); st != http.StatusOK {
		t.Fatalf("/livez during drain: %d, want 200 (process is alive)", st)
	}
	if st, _ := get(t, ts.URL+"/healthz"); st != http.StatusOK {
		t.Fatalf("/healthz during drain: %d, want 200 (liveness alias)", st)
	}
	st, body := get(t, ts.URL+"/readyz")
	if st != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain: %d, want 503", st)
	}
	if !strings.Contains(string(body), "draining") {
		t.Fatalf("/readyz drain body %s", body)
	}

	// Draining sheds new traffic via readiness, not by refusing work:
	// requests that still arrive are answered.
	jobs, err := loadgen.BuildJobs("tiny", 20060408, true, loadgen.JobOptions{Format: "native"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/coalesce", "application/json", bytes.NewReader(jobs[0].Body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve during drain: %d, want 200", resp.StatusCode)
	}
}

// Drain must wait for an in-flight /v1/batch request — the fan-out holds
// InFlight for the whole batch, so graceful shutdown cannot cut its
// elements short.
func TestDrainWaitsForInFlightBatch(t *testing.T) {
	s, ts := startService(t, service.Config{Workers: 2, QueueCap: 64})

	// A batch of two branch-and-bound instances, each racing a full
	// 300ms deadline: the request holds InFlight long enough for Drain
	// to provably start while it is running.
	rng := rand.New(rand.NewSource(42))
	g := graph.RandomER(rng, 48, 0.4)
	graph.SprinkleAffinities(rng, g, 14, 100)
	var dimacs strings.Builder
	if err := graph.WriteDIMACSFile(&dimacs, &graph.File{G: g, K: 6}); err != nil {
		t.Fatal(err)
	}
	item := service.Request{Graph: &service.GraphSpec{Dimacs: dimacs.String()}, DeadlineMS: 300, NoCache: true}
	body, err := json.Marshal(&service.BatchSolveRequest{Kind: "coalesce", Items: []service.Request{item, item}})
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		status int
		body   []byte
		err    error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		done <- result{status: resp.StatusCode, body: data}
	}()

	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().InFlight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("batch request never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if n := s.Metrics().InFlight.Load(); n != 0 {
		t.Fatalf("drain returned with %d requests in flight", n)
	}
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("batch request failed: %v", r.err)
		}
		if r.status != http.StatusOK {
			t.Fatalf("batch answered %d after drain: %s", r.status, r.body)
		}
		var out service.BatchResponse
		if err := json.Unmarshal(r.body, &out); err != nil {
			t.Fatal(err)
		}
		for i, e := range out.Results {
			if e.Error != "" || e.Coalesce == nil {
				t.Fatalf("batch element %d cut short by drain: %q", i, e.Error)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("batch response never arrived after drain")
	}
}

// The cache and collapse counters the cluster relies on are visible on
// both observability surfaces.
func TestMetricsExposeCacheAndCollapseCounters(t *testing.T) {
	// Capacity 1 forces an eviction as soon as two distinct instances
	// are cached.
	s, ts := startService(t, service.Config{Workers: 2, CacheCapacity: 1})
	jobs, err := loadgen.BuildJobs("tiny", 20060408, true, loadgen.JobOptions{Format: "native"})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) < 2 {
		t.Fatalf("need 2 tiny jobs, got %d", len(jobs))
	}
	fire := func(path string, body []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
	fire("/v1/coalesce", jobs[0].Body)
	fire("/v1/coalesce", jobs[0].Body) // hit
	fire("/v1/coalesce", jobs[1].Body) // evicts jobs[0]
	var breq service.BatchSolveRequest
	breq.Kind = "coalesce"
	var item service.Request
	if err := json.Unmarshal(jobs[0].Body, &item); err != nil {
		t.Fatal(err)
	}
	breq.Items = []service.Request{item}
	bbody, err := json.Marshal(&breq)
	if err != nil {
		t.Fatal(err)
	}
	fire("/v1/batch", bbody)

	st, statsBody := get(t, ts.URL+"/stats")
	if st != http.StatusOK {
		t.Fatalf("/stats: %d", st)
	}
	var stats service.Stats
	if err := json.Unmarshal(statsBody, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits == 0 {
		t.Fatal("stats: no cache hits after a repeat")
	}
	if stats.CacheEvictions == 0 {
		t.Fatal("stats: no evictions with capacity 1 and two instances")
	}
	if stats.BatchRequests != 1 {
		t.Fatalf("stats: batch_requests %d, want 1", stats.BatchRequests)
	}
	// The raw JSON must carry the counter keys even at zero, so
	// dashboards can rely on them.
	for _, key := range []string{"cache_evictions", "singleflight_collapses", "batch_requests", "cache_hits", "cache_misses"} {
		if !strings.Contains(string(statsBody), `"`+key+`"`) {
			t.Fatalf("/stats missing %q: %s", key, statsBody)
		}
	}

	st, promBody := get(t, ts.URL+"/metrics")
	if st != http.StatusOK {
		t.Fatalf("/metrics: %d", st)
	}
	for _, family := range []string{
		"regcoal_cache_hits_total",
		"regcoal_cache_misses_total",
		"regcoal_cache_evictions_total",
		"regcoal_singleflight_collapses_total",
		"regcoal_batch_requests_total",
	} {
		if !strings.Contains(string(promBody), family) {
			t.Fatalf("/metrics missing %s", family)
		}
	}
	if s.Metrics().BatchGraphs.Load() != 1 {
		t.Fatalf("batch_graphs %d, want 1", s.Metrics().BatchGraphs.Load())
	}
}
