package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"regcoal/internal/graph"
	"regcoal/internal/obs"
	"regcoal/internal/service"
)

// options are one workload run's settings.
type options struct {
	w           workloadInfo
	seed        int64
	seconds     float64
	trace       bool
	spansDir    string // traced runs: write <workload>.spans.jsonl here when set
	setupReps   int    // setups per run; setup_s is their median
	maxRequests int    // > 0 caps the timed requests (tests)
}

// metricValue is one reported number and its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	firstErr string
	spans    []span // traced runs, for tests
	orphans  int    // traced runs: spans whose parent was not found
}

// runWorkload sets the workload up setupReps times (keeping the last
// set-up), drives the timed phase, then validates and measures.
func runWorkload(o options) (*result, error) {
	pool := int(coldPerSecond * o.seconds)
	if o.maxRequests > 0 {
		pool = min(pool, o.maxRequests)
	}
	in, err := buildInputs(o.w, o.seed, pool)
	if err != nil {
		return nil, err
	}
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}

	// The clients' storage is reserved before the servers start, so the
	// live heap measured just before the last set-up holds the inputs and
	// this storage; the servers' heap is what the run adds to it.
	kept := int(o.w.rate*o.seconds)/clients + 1
	if o.maxRequests > 0 {
		kept = o.maxRequests
	}
	stores := make([]*store, clients)
	for c := range stores {
		stores[c] = newStore(kept, o.w.keep)
	}

	p := &phase{}
	var topo *topology
	var d *runner
	t0 := time.Now()
	setupClock := newHostClock(func() int64 { return int64(time.Since(t0)) })
	for rep := 0; rep < o.setupReps; rep++ {
		if topo != nil {
			topo.close()
		}
		if rep == o.setupReps-1 {
			p.harnessHeap = liveHeap()
		}
		setupClock.burst()
		start := setupClock.now()
		if topo, err = startTopology(o.w, rec); err != nil {
			return nil, err
		}
		d = newRunner(in, topo, rec, o.maxRequests)
		if err = setUp(d, in); err != nil {
			topo.close()
			return nil, err
		}
		end := setupClock.now()
		setupClock.burst()
		wall, _ := setupClock.scaled(start, end)
		p.setup = append(p.setup, wall/1e9)
	}
	defer topo.close()

	runtime.GC()
	p.rt0 = readRuntime()
	start := d.now()
	if rec != nil {
		rec.on.Store(true)
	}
	d.run(o.seconds, stores)
	if rec != nil {
		rec.on.Store(false)
	}
	p.rt1 = readRuntime()
	d.closeUnclosed(stores)
	p.liveHeap = liveHeap()

	var recs []record
	end := start
	for _, st := range stores {
		recs = append(recs, st.recs...)
		for i := range st.recs {
			end = max(end, st.recs[i].end)
		}
	}
	p.host = d.host
	p.wall, p.cpu = d.host.scaled(start, end)
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no request was sent", o.w.name)
	}

	var v *verdict
	if in.plans != nil {
		v = validateSessions(in, recs)
	} else {
		v = validateSolve(in, recs, d.first)
	}
	res := &result{Correct: v.failed == 0, Attempted: len(recs), Failed: v.failed, firstErr: v.firstErr}
	defs, values := endToEnd, map[string]float64(nil)
	if !o.trace {
		values = endToEndMetrics(recs, p, v)
	} else {
		defs = perLayer
		rejected, err := d.poolRejected()
		if err != nil {
			return nil, err
		}
		spans := rec.snapshot()
		l, orphans := link(spans, o.w.cluster, v.sessionOf)
		res.spans, res.orphans = spans, orphans
		li := &layerInput{w: o.w, recs: recs, spans: l, p: p, v: v, poolRejected: rejected}
		li.canonUS, li.routeUS = kernelTimes(in, d)
		values = layerMetrics(li)
		if o.spansDir != "" {
			if err := saveSpans(o.spansDir, o.w.name, l, recs); err != nil {
				return nil, err
			}
		}
	}
	res.Metrics = make(map[string]metricValue, len(defs))
	for _, m := range defs {
		res.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
	}
	return res, nil
}

// setUp primes the cache (hot workloads compute every canonical key once)
// and warms every layer with untimed traffic.
func setUp(d *runner, in *inputs) error {
	if in.plans != nil {
		return d.setupSessions(in.warmPlans)
	}
	if err := d.setupSend(in.prime); err != nil {
		return err
	}
	return d.setupSend(in.warm)
}

// kernelTimes times graph.CanonicalForm over the workload's distinct
// graphs and the router's routing-key derivation (decode, then
// service.RoutingHash) over its distinct bodies, three times each, while
// the servers are idle, at the host speed of the last burst.
func kernelTimes(in *inputs, d *runner) (canonUS, routeUS []float64) {
	const reps, limit = 3, 512
	var files []*graph.File
	var route []func()
	if in.plans != nil {
		for _, p := range in.plans[:min(len(in.plans), editBases)] {
			files = append(files, p.base)
			body := p.create
			route = append(route, func() {
				var req service.DeltaRequest
				if json.Unmarshal(body, &req) == nil && req.Graph != nil {
					service.RoutingHash(&service.Request{Graph: req.Graph, K: req.K}, 0)
				}
			})
		}
	} else {
		for id := range in.inputs {
			if d.first[id].Load() == nil || len(files) == limit {
				continue
			}
			f, err := in.inputs[id].ref.file()
			if err != nil {
				continue
			}
			files = append(files, f)
			body := in.inputs[id].body
			route = append(route, func() {
				var req service.Request
				if json.Unmarshal(body, &req) == nil {
					service.RoutingHash(&req, 0)
				}
			})
		}
	}
	scale := d.host.scale(d.now())
	for r := 0; r < reps; r++ {
		for i, f := range files {
			t := time.Now()
			graph.CanonicalForm(f)
			canonUS = append(canonUS, float64(time.Since(t))/1e3*scale)
			t = time.Now()
			route[i]()
			routeUS = append(routeUS, float64(time.Since(t))/1e3*scale)
		}
	}
	return canonUS, routeUS
}

// saveSpans writes dir/<workload>.spans.jsonl.
func saveSpans(dir, name string, l linked, recs []record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".spans.jsonl"))
	if err != nil {
		return err
	}
	phases := make(map[string]map[string]int64, len(recs))
	for i := range recs {
		phases[recs[i].trace] = obs.ParsePhases(recs[i].phases)
	}
	w := bufio.NewWriter(f)
	if err := writeSpans(w, l, phases); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sortedKeys lists a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
