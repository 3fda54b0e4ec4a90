package main

import (
	"math"
	"sort"

	"regcoal/internal/obs"
)

// metricDef is one reported metric; BENCHMARK.json lists the same names
// and units with their direction and bound (a test keeps them in step).
type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics, what a compiler client waiting
// on the service sees.
var endToEnd = []metricDef{
	{"throughput_rps", "req/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_ms_per_req", "ms"},
	{"uncoalesced_weight_frac", "frac"},
	{"setup_s", "s"},
	{"server_heap_mb", "MB"},
}

// perLayer are the traced run's metrics. Times are reported only for
// spans every workload has; a layer that some workload skips is reported
// as its share of client time, so it reads 0 there rather than a
// meaningless time. The *_frac shares of client time sum to 1.
var perLayer = []metricDef{
	{"client.self_us_p50", "us"},
	{"worker.self_us_p50", "us"},
	{"service.decode_us_p50", "us"},
	{"service.canon_us_p50", "us"},
	{"service.encode_us_p50", "us"},
	{"graph.canon_us_p50", "us"},
	{"router.route_hash_us_p50", "us"},

	{"client.self_frac", "frac"},
	{"router.self_frac", "frac"},
	{"router.forward_frac", "frac"},
	{"worker.self_frac", "frac"},
	{"worker.peer_fill_frac", "frac"},
	{"worker.push_frac", "frac"},
	{"worker.oplog_repl_frac", "frac"},
	{"service.decode_frac", "frac"},
	{"service.canon_frac", "frac"},
	{"service.cache_frac", "frac"},
	{"service.race_frac", "frac"},
	{"service.encode_frac", "frac"},
	{"session.create_frac", "frac"},
	{"session.apply_frac", "frac"},

	{"router.attempts_per_req", "count"},
	{"worker.peer_fill_per_req", "count"},
	{"worker.peer_fill_hit_frac", "frac"},
	{"worker.push_per_miss", "count"},
	{"worker.oplog_repl_per_write", "count"},
	{"worker.rejected_frac", "frac"},
	{"service.cache_hit_frac", "frac"},
	{"service.collapse_frac", "frac"},
	{"service.deadline_hit_frac", "frac"},
	{"session.incremental_frac", "frac"},
	{"session.memo_frac", "frac"},
	{"session.fresh_frac", "frac"},
	{"engine.pool_rejected", "count"},
	{"cluster.shard_max_share", "frac"},
	{"runtime.alloc_kb_per_req", "KB"},
	{"runtime.gc_cpu_frac", "frac"},
	{"spill.cost_per_answer", "cost"},
	{"host.speed_factor", "x"},
	{"host.stolen_frac", "frac"},
}

// quantile is the linear-interpolation quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// phase is what the timed phase measured besides the records. Times are
// at the reference host speed.
type phase struct {
	setup       []float64 // seconds, one per set-up
	cpu, wall   float64   // nanoseconds, calibration bursts left out
	host        *hostClock
	harnessHeap uint64 // live heap before the last set-up: inputs and client storage
	liveHeap    uint64 // live heap at the end of the timed phase
	rt0, rt1    runtimeSample
}

// endToEndMetrics computes the untraced run's metrics.
func endToEndMetrics(recs []record, p *phase, v *verdict) map[string]float64 {
	// The median request is not one the hypervisor stalled, so latencies
	// are scaled by host speed only; the 90th percentile one is, when a
	// fifth or more of the CPU time is stolen, so the tail also leaves out
	// the stolen share of its stretch, as wall time does.
	var lat, tail []float64
	for i := range recs {
		if r := &recs[i]; r.ok() {
			ms := float64(r.end-r.start) / 1e6 * p.host.scale(r.start)
			lat = append(lat, ms)
			tail = append(tail, ms*(1-p.host.stolen(r.start)))
		}
	}
	sort.Float64s(lat)
	sort.Float64s(tail)
	ok := float64(len(lat))
	_, setup, _ := quartiles(p.setup)
	return map[string]float64{
		"throughput_rps":          ratio(ok, p.wall/1e9),
		"latency_p50_ms":          quantile(lat, 0.50),
		"latency_p90_ms":          quantile(tail, 0.90),
		"cpu_ms_per_req":          ratio(p.cpu/1e6, ok),
		"uncoalesced_weight_frac": ratio(float64(v.remainingW), float64(v.coalescedW+v.remainingW)),
		"setup_s":                 setup,
		"server_heap_mb":          (float64(p.liveHeap) - float64(p.harnessHeap)) / (1 << 20),
	}
}

// layerInput is what the traced run hands the per-layer computation.
type layerInput struct {
	w            workloadInfo
	recs         []record
	spans        linked
	p            *phase
	v            *verdict
	poolRejected int64
	canonUS      []float64 // harness-timed graph.CanonicalForm calls
	routeUS      []float64 // harness-timed router key derivations
}

// layerMetrics attributes the traced run's client time to the layers and
// reads the per-layer counters.
func layerMetrics(in *layerInput) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	recs, spans := in.recs, in.spans.spans
	self := in.spans.selfTimes()

	type reqInfo struct {
		phases map[string]int64
		delta  int16 // 0: solve; 1: session create; 2+b: session batch b
		scale  float64
	}
	info := make(map[string]reqInfo, len(recs))
	var decode, canon, encode []float64
	var attempted, ok, solveOK, hits, collapses, misses, writes, rejected float64
	shards := make(map[int8]float64)
	for i := range recs {
		r := &recs[i]
		attempted++
		ri := reqInfo{phases: obs.ParsePhases(r.phases), scale: in.p.host.scale(r.start)}
		if in.w.name == "edit-cluster" {
			ri.delta = 2 + r.step
		}
		info[r.trace] = ri
		if r.status == 429 {
			rejected++
		}
		if !r.ok() {
			continue
		}
		ok++
		shards[r.shard]++
		if ri.delta != 0 {
			writes++
		} else {
			solveOK++
		}
		switch r.cache {
		case dispHit:
			hits++
		case dispMiss:
			misses++
		case dispCollapse:
			collapses++
		}
		for name, ns := range ri.phases {
			us := float64(ns) / 1e3 * ri.scale
			switch name {
			case "decode":
				decode = append(decode, us)
			case "canon":
				canon = append(canon, us)
			case "encode":
				encode = append(encode, us)
			}
		}
	}

	var total float64
	var sum [numSpanKinds]float64 // self time per span kind
	var count [numSpanKinds]float64
	var fillHits float64
	phaseSum := make(map[string]float64)
	var clientSelf, workerSelf []float64
	for i, s := range spans {
		count[s.kind]++
		sum[s.kind] += float64(self[i])
		switch s.kind {
		case spanClient:
			total += float64(s.end - s.start)
			clientSelf = append(clientSelf, float64(self[i])/1e3*in.p.host.scale(s.start))
		case spanPeerFill:
			if s.status == 200 {
				fillHits++
			}
		case spanWorkerHandle:
			// The peer phase only contains the peer fills, which are spans
			// of their own; the rest of it is the worker's own work.
			ri := info[s.trace]
			var ph float64
			for name, ns := range ri.phases {
				if name == "peer" {
					continue
				}
				key := "service." + name
				if name == "race" && ri.delta == 1 {
					key = "session.create"
				} else if name == "race" && ri.delta > 1 {
					key = "session.apply"
				}
				phaseSum[key] += float64(ns)
				ph += float64(ns)
			}
			workerSelf = append(workerSelf, math.Max(0, float64(self[i])-ph)/1e3*ri.scale)
			sum[spanWorkerHandle] -= ph
		}
	}
	for _, s := range [][]float64{decode, canon, encode, clientSelf, workerSelf, in.canonUS, in.routeUS} {
		sort.Float64s(s)
	}
	m["client.self_us_p50"] = quantile(clientSelf, 0.5)
	m["worker.self_us_p50"] = quantile(workerSelf, 0.5)
	m["service.decode_us_p50"] = quantile(decode, 0.5)
	m["service.canon_us_p50"] = quantile(canon, 0.5)
	m["service.encode_us_p50"] = quantile(encode, 0.5)
	m["graph.canon_us_p50"] = quantile(in.canonUS, 0.5)
	m["router.route_hash_us_p50"] = quantile(in.routeUS, 0.5)

	m["client.self_frac"] = ratio(sum[spanClient], total)
	m["router.self_frac"] = ratio(sum[spanRouterHandle], total)
	m["router.forward_frac"] = ratio(sum[spanRouterForward], total)
	m["worker.self_frac"] = ratio(sum[spanWorkerHandle], total)
	m["worker.peer_fill_frac"] = ratio(sum[spanPeerFill], total)
	m["worker.push_frac"] = ratio(sum[spanPush], total)
	m["worker.oplog_repl_frac"] = ratio(sum[spanOplog], total)
	for _, key := range []string{"service.decode", "service.canon", "service.cache", "service.race", "service.encode", "session.create", "session.apply"} {
		m[key+"_frac"] = ratio(phaseSum[key], total)
	}

	m["router.attempts_per_req"] = ratio(count[spanRouterForward], count[spanClient])
	m["worker.peer_fill_per_req"] = ratio(count[spanPeerFill], count[spanClient])
	m["worker.peer_fill_hit_frac"] = ratio(fillHits, count[spanPeerFill])
	m["worker.push_per_miss"] = ratio(count[spanPush], misses)
	m["worker.oplog_repl_per_write"] = ratio(count[spanOplog], writes)
	m["worker.rejected_frac"] = ratio(rejected, attempted)
	m["service.cache_hit_frac"] = ratio(hits, solveOK)
	m["service.collapse_frac"] = ratio(collapses, solveOK)
	m["service.deadline_hit_frac"] = ratio(float64(in.v.deadlineHits), float64(in.v.solveAnswers))
	m["session.incremental_frac"] = ratio(float64(in.v.paths["incremental"]), float64(in.v.deltaAnswers))
	m["session.memo_frac"] = ratio(float64(in.v.paths["memo"]), float64(in.v.deltaAnswers))
	m["session.fresh_frac"] = ratio(float64(in.v.paths["fresh"]), float64(in.v.deltaAnswers))
	m["engine.pool_rejected"] = float64(in.poolRejected)
	var top float64
	for _, n := range shards {
		top = max(top, n)
	}
	m["cluster.shard_max_share"] = ratio(top, ok)
	m["runtime.alloc_kb_per_req"] = ratio(float64(in.p.rt1.allocBytes-in.p.rt0.allocBytes)/1024, attempted)
	m["runtime.gc_cpu_frac"] = ratio(in.p.rt1.gcCPU-in.p.rt0.gcCPU, in.p.rt1.totalCPU-in.p.rt0.totalCPU)
	m["spill.cost_per_answer"] = ratio(float64(in.v.spillCost), float64(in.v.spillAnswers))
	var speed float64
	for _, b := range in.p.host.bursts {
		speed += b.speed
	}
	m["host.speed_factor"] = factor(ratio(speed, float64(len(in.p.host.bursts))))
	if b := in.p.host.bursts; len(b) > 0 {
		m["host.stolen_frac"] = stolenShare(b[0], b[len(b)-1])
	}
	return m
}
