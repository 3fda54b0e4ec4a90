// Package loadgen replays corpus instances as concurrent HTTP traffic
// against the coalescing service and reports throughput, latency
// percentiles, and response validity. It is both the engine of
// cmd/loadgen and the driver of the service integration test: every
// response is decoded and checked — classes must be non-interfering,
// colorings proper and pin-respecting — so a passing run is a correctness
// statement, not just a timing one.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"regcoal/internal/corpus"
	"regcoal/internal/graph"
	"regcoal/internal/obs"
	"regcoal/internal/service"
)

// Job is one request payload plus the instance it carries, kept for
// validating the response.
type Job struct {
	Name string
	Body []byte
	File *graph.File
}

// JobOptions shape the requests built from corpus instances.
type JobOptions struct {
	// Format selects the graph encoding: native, text, or dimacs.
	Format string
	// DeadlineMS, Strategies and NoCache are copied into every request.
	DeadlineMS int64
	Strategies []string
	NoCache    bool
}

// BuildJobs resolves a corpus family spec ("all" or comma-separated
// names), generates the instances for (seed, quick), and converts them to
// request payloads — the one-call setup path shared by cmd/loadgen and
// tests.
func BuildJobs(familySpec string, seed int64, quick bool, opts JobOptions) ([]Job, error) {
	fams, err := corpus.Select(familySpec)
	if err != nil {
		return nil, err
	}
	insts, err := corpus.BuildAll(fams, corpus.Params{Seed: seed, Quick: quick})
	if err != nil {
		return nil, err
	}
	return JobsFromInstances(insts, opts)
}

// JobsFromInstances converts corpus instances into request payloads.
func JobsFromInstances(insts []*corpus.Instance, opts JobOptions) ([]Job, error) {
	jobs := make([]Job, 0, len(insts))
	for _, inst := range insts {
		spec, err := specFor(inst.File, opts.Format)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", inst.Name, err)
		}
		req := service.Request{
			Graph:      spec,
			DeadlineMS: opts.DeadlineMS,
			Strategies: opts.Strategies,
			NoCache:    opts.NoCache,
		}
		body, err := json.Marshal(&req)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, Job{Name: inst.Family + "/" + inst.Name, Body: body, File: inst.File})
	}
	return jobs, nil
}

func specFor(f *graph.File, format string) (*service.GraphSpec, error) {
	switch format {
	case "", "native":
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
		return spec, nil
	case "text":
		return &service.GraphSpec{Text: f.FormatString()}, nil
	case "dimacs":
		var b strings.Builder
		if err := graph.WriteDIMACSFile(&b, f); err != nil {
			return nil, err
		}
		return &service.GraphSpec{Dimacs: b.String()}, nil
	default:
		return nil, fmt.Errorf("unknown format %q (want native, text, dimacs)", format)
	}
}

// Options parameterize a run.
type Options struct {
	// BaseURL is the service root, e.g. http://localhost:8080.
	BaseURL string
	// Targets optionally lists several service roots — cluster routers or
	// individual workers — replayed round-robin per request. When set it
	// takes precedence over BaseURL; the report then carries a per-target
	// and per-shard breakdown.
	Targets []string
	// Endpoint is "coalesce", "allocate", or "spill".
	Endpoint string
	// Concurrency is the number of in-flight requests (default 16).
	Concurrency int
	// Requests is the total request count; jobs are replayed round-robin,
	// so a count above len(jobs) revisits instances and exercises the
	// cache (default: one pass over the jobs).
	Requests int
	// Client overrides the HTTP client (default: http.DefaultClient with
	// a 60s timeout).
	Client *http.Client
	// SlowN keeps the N slowest successful requests in the report, each
	// with its trace ID and server-side phase breakdown — enough to pull
	// the full timeline from the server's /debug/requests afterwards.
	SlowN int
}

// Report aggregates a run.
type Report struct {
	Requests     int
	OK           int
	Rejected     int // 429: backpressure, not failure
	Failed       int // any other non-200, transport error, or invalid body
	CacheHits    int
	Collapsed    int // answered by collapsing onto a concurrent identical race
	DeadlineHits int
	Wall         time.Duration
	Latencies    Percentiles
	FirstFailure string
	// PerTarget counts requests sent to each base URL (multi-target runs).
	PerTarget map[string]int `json:",omitempty"`
	// PerShard counts responses by the X-Regcoal-Shard header a cluster
	// router attaches — the worker that actually answered.
	PerShard map[string]int `json:",omitempty"`
	// Phases holds per-phase server-side latency percentiles, aggregated
	// from the X-Regcoal-Phases header (nanosecond durations the server
	// measured, not client round-trip time). Keys are the server's phase
	// names: decode, canon, peer, cache, race, encode.
	Phases map[string]Percentiles `json:",omitempty"`
	// Slow lists the SlowN slowest successful requests, slowest first.
	Slow []SlowSample `json:",omitempty"`
}

// SlowSample identifies one slow request: the instance, the trace ID the
// server answered with (look it up on /debug/requests for the full race
// timeline), and the server-side phase durations in nanoseconds.
type SlowSample struct {
	Name    string
	TraceID string           `json:",omitempty"`
	Latency time.Duration    // client round-trip
	Phases  map[string]int64 `json:",omitempty"` // server-side, ns
}

// Percentiles summarize request latency. Mean is the arithmetic mean of
// the per-request latencies — distinct from wall-clock/requests, which
// is inverse throughput and shrinks with concurrency.
type Percentiles struct {
	P50, P90, P99, Max, Mean time.Duration
}

// Throughput reports successful requests per second.
func (r *Report) Throughput() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.OK) / r.Wall.Seconds()
}

func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests %d  ok %d  rejected(429) %d  failed %d\n", r.Requests, r.OK, r.Rejected, r.Failed)
	fmt.Fprintf(&b, "cache hits %d  collapsed %d  deadline hits %d\n", r.CacheHits, r.Collapsed, r.DeadlineHits)
	fmt.Fprintf(&b, "wall %v  throughput %.1f req/s\n", r.Wall.Round(time.Millisecond), r.Throughput())
	fmt.Fprintf(&b, "latency mean %v  p50 %v  p90 %v  p99 %v  max %v\n",
		r.Latencies.Mean.Round(time.Microsecond),
		r.Latencies.P50.Round(time.Microsecond), r.Latencies.P90.Round(time.Microsecond),
		r.Latencies.P99.Round(time.Microsecond), r.Latencies.Max.Round(time.Microsecond))
	if len(r.Phases) > 0 {
		names := make([]string, 0, len(r.Phases))
		for n := range r.Phases {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			p := r.Phases[n]
			fmt.Fprintf(&b, "phase %-6s p50 %v  p90 %v  p99 %v  max %v\n", n,
				p.P50.Round(time.Microsecond), p.P90.Round(time.Microsecond),
				p.P99.Round(time.Microsecond), p.Max.Round(time.Microsecond))
		}
	}
	writeBreakdown(&b, "shard", r.PerShard)
	writeBreakdown(&b, "target", r.PerTarget)
	for i, s := range r.Slow {
		fmt.Fprintf(&b, "slow #%d %v  %s", i+1, s.Latency.Round(time.Microsecond), s.Name)
		if s.TraceID != "" {
			fmt.Fprintf(&b, "  trace=%s", s.TraceID)
		}
		if len(s.Phases) > 0 {
			names := make([]string, 0, len(s.Phases))
			for n := range s.Phases {
				names = append(names, n)
			}
			sort.Strings(names)
			b.WriteString("  [")
			for j, n := range names {
				if j > 0 {
					b.WriteByte(';')
				}
				fmt.Fprintf(&b, "%s=%v", n, time.Duration(s.Phases[n]).Round(time.Microsecond))
			}
			b.WriteString("]")
		}
		b.WriteString("\n")
	}
	if r.FirstFailure != "" {
		fmt.Fprintf(&b, "first failure: %s\n", r.FirstFailure)
	}
	return b.String()
}

// writeBreakdown prints a per-key request count, keys sorted for stable
// output.
func writeBreakdown(b *strings.Builder, label string, counts map[string]int) {
	if len(counts) == 0 {
		return
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(b, "per-%s:", label)
	for _, k := range keys {
		fmt.Fprintf(b, "  %s=%d", k, counts[k])
	}
	b.WriteString("\n")
}

// Run fires Requests requests over the jobs round-robin with Concurrency
// workers, validating every 200 body against its instance.
func Run(ctx context.Context, opts Options, jobs []Job) (*Report, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("loadgen: no jobs")
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = 16
	}
	if opts.Requests <= 0 {
		opts.Requests = len(jobs)
	}
	endpoint := opts.Endpoint
	if endpoint == "" {
		endpoint = "coalesce"
	}
	if endpoint != "coalesce" && endpoint != "allocate" && endpoint != "spill" {
		return nil, fmt.Errorf("loadgen: unknown endpoint %q", endpoint)
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 60 * time.Second}
	}
	targets := opts.Targets
	if len(targets) == 0 {
		targets = []string{opts.BaseURL}
	}
	urls := make([]string, len(targets))
	for i, t := range targets {
		urls[i] = strings.TrimSuffix(t, "/") + "/v1/" + endpoint
	}

	samples := make([]sample, opts.Requests)
	idxCh := make(chan int)
	done := make(chan struct{})
	for w := 0; w < opts.Concurrency; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range idxCh {
				job := jobs[i%len(jobs)]
				target := i % len(urls)
				start := time.Now()
				sm := fire(ctx, client, urls[target], endpoint, job)
				sm.latency = time.Since(start)
				sm.target = targets[target]
				sm.name = job.Name
				samples[i] = sm
			}
		}()
	}
	start := time.Now()
feed:
	for i := 0; i < opts.Requests; i++ {
		select {
		case idxCh <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idxCh)
	for w := 0; w < opts.Concurrency; w++ {
		<-done
	}

	rep := &Report{Requests: opts.Requests, Wall: time.Since(start)}
	if len(targets) > 1 {
		rep.PerTarget = make(map[string]int)
	}
	lats := make([]time.Duration, 0, opts.Requests)
	phaseLats := make(map[string][]time.Duration)
	var okSamples []*sample
	for i := range samples {
		sm := &samples[i]
		switch {
		case sm.status == http.StatusOK && sm.failure == "":
			rep.OK++
			lats = append(lats, sm.latency)
			okSamples = append(okSamples, sm)
			for name, ns := range obs.ParsePhases(sm.phases) {
				phaseLats[name] = append(phaseLats[name], time.Duration(ns))
			}
		case sm.status == http.StatusTooManyRequests:
			rep.Rejected++
		default:
			rep.Failed++
			if rep.FirstFailure == "" && sm.failure != "" {
				rep.FirstFailure = sm.failure
			}
		}
		if sm.cacheHit {
			rep.CacheHits++
		}
		if sm.collapsed {
			rep.Collapsed++
		}
		if sm.deadlineHit {
			rep.DeadlineHits++
		}
		if rep.PerTarget != nil {
			rep.PerTarget[sm.target]++
		}
		if sm.shard != "" {
			if rep.PerShard == nil {
				rep.PerShard = make(map[string]int)
			}
			rep.PerShard[sm.shard]++
		}
	}
	rep.Latencies = percentiles(lats)
	if len(phaseLats) > 0 {
		rep.Phases = make(map[string]Percentiles, len(phaseLats))
		for name, pl := range phaseLats {
			rep.Phases[name] = percentiles(pl)
		}
	}
	if opts.SlowN > 0 && len(okSamples) > 0 {
		sort.Slice(okSamples, func(i, j int) bool { return okSamples[i].latency > okSamples[j].latency })
		n := opts.SlowN
		if n > len(okSamples) {
			n = len(okSamples)
		}
		rep.Slow = make([]SlowSample, 0, n)
		for _, sm := range okSamples[:n] {
			rep.Slow = append(rep.Slow, SlowSample{
				Name:    sm.name,
				TraceID: sm.traceID,
				Latency: sm.latency,
				Phases:  obs.ParsePhases(sm.phases),
			})
		}
	}
	return rep, nil
}

// sample is one request's outcome; target and latency are filled in by
// the worker loop, the rest by fire.
type sample struct {
	latency     time.Duration
	status      int
	cacheHit    bool
	collapsed   bool
	deadlineHit bool
	shard       string // X-Regcoal-Shard: the worker a cluster router chose
	target      string // base URL the request was sent to
	name        string // instance name (family/name)
	traceID     string // X-Regcoal-Trace-Id the server answered with
	phases      string // X-Regcoal-Phases raw header (server-side ns)
	failure     string
}

func fire(ctx context.Context, client *http.Client, url, endpoint string, job Job) sample {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(job.Body))
	if err != nil {
		return sample{failure: err.Error()}
	}
	req.Header.Set("Content-Type", "application/json")
	// The corpus family labels the request for the server's pprof
	// profiles and /debug/requests entries.
	if fam, _, ok := strings.Cut(job.Name, "/"); ok {
		req.Header.Set(service.FamilyHeader, fam)
	}
	resp, err := client.Do(req)
	if err != nil {
		return sample{failure: fmt.Sprintf("%s: %v", job.Name, err)}
	}
	defer resp.Body.Close()
	sm := sample{status: resp.StatusCode}
	sm.traceID = resp.Header.Get(service.TraceIDHeader)
	sm.phases = resp.Header.Get(service.PhasesHeader)
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		sm.failure = fmt.Sprintf("%s: reading body: %v", job.Name, err)
		return sm
	}
	switch resp.Header.Get("X-Regcoal-Cache") {
	case "hit":
		sm.cacheHit = true
	case "collapse":
		sm.collapsed = true
	}
	sm.shard = resp.Header.Get("X-Regcoal-Shard")
	if resp.StatusCode != http.StatusOK {
		sm.failure = fmt.Sprintf("%s: status %d: %s", job.Name, resp.StatusCode, truncate(body))
		return sm
	}
	switch endpoint {
	case "coalesce":
		var out service.CoalesceResult
		if err := json.Unmarshal(body, &out); err != nil {
			sm.failure = fmt.Sprintf("%s: decoding: %v", job.Name, err)
			return sm
		}
		sm.deadlineHit = out.DeadlineHit
		if err := ValidateCoalesce(job.File, &out); err != nil {
			sm.failure = fmt.Sprintf("%s: %v", job.Name, err)
		}
	case "spill":
		var out service.SpillResult
		if err := json.Unmarshal(body, &out); err != nil {
			sm.failure = fmt.Sprintf("%s: decoding: %v", job.Name, err)
			return sm
		}
		sm.deadlineHit = out.DeadlineHit
		if err := ValidateSpill(job.File, &out); err != nil {
			sm.failure = fmt.Sprintf("%s: %v", job.Name, err)
		}
	default:
		var out service.AllocateResult
		if err := json.Unmarshal(body, &out); err != nil {
			sm.failure = fmt.Sprintf("%s: decoding: %v", job.Name, err)
			return sm
		}
		sm.deadlineHit = out.DeadlineHit
		if err := ValidateAllocate(job.File, &out); err != nil {
			sm.failure = fmt.Sprintf("%s: %v", job.Name, err)
		}
	}
	return sm
}

// FetchStats retrieves a node's /stats body verbatim. Routers, workers
// and single nodes serve different families, so the body is not decoded
// into any one shape; it is checked only to be JSON.
func FetchStats(ctx context.Context, client *http.Client, baseURL string) (json.RawMessage, error) {
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimSuffix(baseURL, "/")+"/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: /stats status %d: %s", resp.StatusCode, truncate(body))
	}
	if !json.Valid(body) {
		return nil, fmt.Errorf("loadgen: /stats is not JSON: %s", truncate(body))
	}
	return body, nil
}

func truncate(b []byte) string {
	const max = 200
	if len(b) > max {
		return string(b[:max]) + "..."
	}
	return string(b)
}

// ValidateCoalesce checks a coalesce response against its instance: the
// classes must partition the vertices without internal interference, and
// a coloring, when present, must be proper, complete, within k, respect
// precoloring, and be constant on every class.
func ValidateCoalesce(f *graph.File, out *service.CoalesceResult) error {
	g := f.G
	if out.Vertices != g.N() || out.Edges != g.E() || out.Moves != g.NumAffinities() {
		return fmt.Errorf("shape mismatch: response %d/%d/%d, instance %d/%d/%d",
			out.Vertices, out.Edges, out.Moves, g.N(), g.E(), g.NumAffinities())
	}
	seen := make([]bool, g.N())
	for _, cls := range out.Classes {
		for i, v := range cls {
			if v < 0 || v >= g.N() {
				return fmt.Errorf("class vertex %d out of range", v)
			}
			if seen[v] {
				return fmt.Errorf("vertex %d appears in two classes", v)
			}
			seen[v] = true
			for _, w := range cls[i+1:] {
				if g.HasEdge(graph.V(v), graph.V(w)) {
					return fmt.Errorf("class contains interfering pair (%d,%d)", v, w)
				}
			}
		}
	}
	for v, ok := range seen {
		if !ok {
			return fmt.Errorf("vertex %d missing from classes", v)
		}
	}
	if out.Coloring == nil {
		return nil
	}
	col := graph.Coloring(out.Coloring)
	if err := col.Check(g); err != nil {
		return err
	}
	if mc := col.MaxColor(); mc >= out.K {
		return fmt.Errorf("coloring uses color %d with k=%d", mc, out.K)
	}
	for _, cls := range out.Classes {
		for _, v := range cls[1:] {
			if out.Coloring[v] != out.Coloring[cls[0]] {
				return fmt.Errorf("class of %d not color-constant", cls[0])
			}
		}
	}
	return nil
}

// ValidateSpill checks a spill response against its instance: the
// residual coloring must be k-feasible — spilled vertices carry NoColor,
// every survivor a proper in-range color matching its pin — and the
// counters must agree with the spill set.
func ValidateSpill(f *graph.File, out *service.SpillResult) error {
	g := f.G
	if out.Vertices != g.N() || out.Edges != g.E() || out.Moves != g.NumAffinities() {
		return fmt.Errorf("shape mismatch: response %d/%d/%d, instance %d/%d/%d",
			out.Vertices, out.Edges, out.Moves, g.N(), g.E(), g.NumAffinities())
	}
	if len(out.Coloring) != g.N() {
		return fmt.Errorf("coloring length %d, want %d", len(out.Coloring), g.N())
	}
	spilled := make(map[int]bool, len(out.Spilled))
	for _, v := range out.Spilled {
		if v < 0 || v >= g.N() {
			return fmt.Errorf("spilled vertex %d out of range", v)
		}
		if _, pinned := g.Precolored(graph.V(v)); pinned {
			return fmt.Errorf("precolored vertex %d spilled", v)
		}
		spilled[v] = true
	}
	if len(spilled) != out.Spills {
		return fmt.Errorf("spills %d but %d spilled vertices", out.Spills, len(spilled))
	}
	if out.SpillCost < int64(out.Spills) {
		return fmt.Errorf("spill cost %d below spill count %d", out.SpillCost, out.Spills)
	}
	for v, c := range out.Coloring {
		if spilled[v] {
			if c != graph.NoColor {
				return fmt.Errorf("spilled vertex %d has color %d", v, c)
			}
			continue
		}
		if c < 0 || c >= out.K {
			return fmt.Errorf("vertex %d color %d outside [0,%d)", v, c, out.K)
		}
		if pin, ok := g.Precolored(graph.V(v)); ok && c != pin {
			return fmt.Errorf("precolored vertex %d colored %d, want %d", v, c, pin)
		}
	}
	for _, e := range g.Edges() {
		cu, cv := out.Coloring[e[0]], out.Coloring[e[1]]
		if cu != graph.NoColor && cu == cv {
			return fmt.Errorf("interfering vertices %d,%d share color %d", e[0], e[1], cu)
		}
	}
	return nil
}

// ValidateAllocate checks an allocate response: spilled vertices carry
// NoColor, every other vertex a proper in-range color matching its pin.
func ValidateAllocate(f *graph.File, out *service.AllocateResult) error {
	g := f.G
	if len(out.Coloring) != g.N() {
		return fmt.Errorf("coloring length %d, want %d", len(out.Coloring), g.N())
	}
	spilled := make(map[int]bool, len(out.Spilled))
	for _, v := range out.Spilled {
		if v < 0 || v >= g.N() {
			return fmt.Errorf("spilled vertex %d out of range", v)
		}
		spilled[v] = true
	}
	if len(spilled) != out.Spills {
		return fmt.Errorf("spills %d but %d spilled vertices", out.Spills, len(spilled))
	}
	for v, c := range out.Coloring {
		if spilled[v] {
			if c != graph.NoColor {
				return fmt.Errorf("spilled vertex %d has color %d", v, c)
			}
			continue
		}
		if c < 0 || c >= out.K {
			return fmt.Errorf("vertex %d color %d outside [0,%d)", v, c, out.K)
		}
		if pin, ok := g.Precolored(graph.V(v)); ok && c != pin {
			return fmt.Errorf("precolored vertex %d colored %d, want %d", v, c, pin)
		}
	}
	for _, e := range g.Edges() {
		cu, cv := out.Coloring[e[0]], out.Coloring[e[1]]
		if cu != graph.NoColor && cu == cv {
			return fmt.Errorf("interfering vertices %d,%d share color %d", e[0], e[1], cu)
		}
	}
	return nil
}

func percentiles(lats []time.Duration) Percentiles {
	if len(lats) == 0 {
		return Percentiles{}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	at := func(p float64) time.Duration {
		i := int(p * float64(len(lats)-1))
		return lats[i]
	}
	var sum time.Duration
	for _, l := range lats {
		sum += l
	}
	return Percentiles{P50: at(0.50), P90: at(0.90), P99: at(0.99), Max: lats[len(lats)-1],
		Mean: sum / time.Duration(len(lats))}
}
