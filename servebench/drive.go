package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"regcoal/internal/service"
)

// Cache dispositions, from X-Regcoal-Cache.
const (
	dispNone uint8 = iota
	dispHit
	dispMiss
	dispCollapse
)

// record is one timed request as its client saw it.
type record struct {
	input    int32 // solve: index into inputs.inputs; edit: session number
	step     int16 // edit: -1 create, 0.. batch, editBatches close
	status   int16 // 0 on a transport error
	cache    uint8
	shard    int8 // index into topology.nodes of the node that answered, -1 if unnamed
	mismatch bool // solve: body differs from the first answer to its input
	start    int64
	end      int64
	body     []byte // edit responses, kept for validation
	trace    string // traced runs
	phases   string // traced runs: X-Regcoal-Phases
}

func (r *record) ok() bool { return r.status == http.StatusOK }

// runner runs closed-loop clients against a topology: each client sends
// its next request only when the previous one has been answered, the way
// a compile worker blocks on its allocation.
type runner struct {
	in     *inputs
	topo   *topology
	client *http.Client
	rec    *recorder // nil when untraced
	base   time.Time

	// The timed phase: it ends at deadline, or after maxRequests requests
	// when that is positive (tests).
	deadline    time.Time
	maxRequests int64
	sent        atomic.Int64
	traceSeq    atomic.Uint64

	// gate holds the clients during a calibration burst: each timed
	// request holds it shared, a burst exclusively.
	gate sync.RWMutex
	host *hostClock

	first []atomic.Pointer[[]byte] // solve: first answer to each input
}

func newRunner(in *inputs, topo *topology, rec *recorder, maxRequests int) *runner {
	d := &runner{
		in:          in,
		topo:        topo,
		client:      &http.Client{Timeout: time.Minute, Transport: topo.transport(clients)},
		rec:         rec,
		base:        time.Now(),
		maxRequests: int64(maxRequests),
		first:       make([]atomic.Pointer[[]byte], len(in.inputs)),
	}
	if rec != nil {
		d.base = rec.base
	}
	d.host = newHostClock(d.now)
	return d
}

func (d *runner) now() int64 { return int64(time.Since(d.base)) }

// more reserves the next timed request, or reports that the phase is over.
func (d *runner) more() bool {
	if !time.Now().Before(d.deadline) {
		return false
	}
	return d.maxRequests <= 0 || d.sent.Add(1) <= d.maxRequests
}

// post sends one request and reads the whole response into buf.
func (d *runner) post(path string, body []byte, trace string, buf *bytes.Buffer) (int, http.Header, error) {
	buf.Reset()
	req, err := http.NewRequest(http.MethodPost, d.topo.entry+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if trace != "" {
		req.Header.Set(service.TraceIDHeader, trace)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, resp.Header, nil
}

// timed sends one timed request and fills in r's outcome.
func (d *runner) timed(r *record, path string, body []byte, buf *bytes.Buffer) {
	traced := d.rec != nil && d.rec.on.Load()
	if traced {
		r.trace = fmt.Sprintf("%032x", d.traceSeq.Add(1))
	}
	d.gate.RLock()
	r.start = d.now()
	status, hdr, err := d.post(path, body, r.trace, buf)
	r.end = d.now()
	d.gate.RUnlock()
	if err != nil {
		return
	}
	r.status = int16(status)
	switch hdr.Get("X-Regcoal-Cache") {
	case "hit":
		r.cache = dispHit
	case "miss":
		r.cache = dispMiss
	case "collapse":
		r.cache = dispCollapse
	}
	r.shard = d.shardOf(hdr.Get("X-Regcoal-Shard"))
	if traced {
		r.phases = hdr.Get(service.PhasesHeader)
		d.rec.add(span{trace: r.trace, kind: spanClient, node: -1, start: r.start, end: r.end})
	}
}

// store is what one client keeps of the timed phase: its records, and
// the response bytes validation needs. Both are reserved before timing
// starts, so the heap does not grow with the number of requests served.
type store struct {
	recs     []record
	slab     *slab
	unclosed []byte // edit-cluster: the close of the session the phase cut short
}

func newStore(requests, keepBytes int) *store {
	return &store{recs: make([]record, 0, requests), slab: newSlab(requests*keepBytes + slabChunk)}
}

// shardOf interns an X-Regcoal-Shard value, so records keep no strings.
func (d *runner) shardOf(name string) int8 {
	for i, n := range d.topo.nodes {
		if n == name {
			return int8(i)
		}
	}
	return -1
}

// run starts the clients and waits for them, with calibration bursts
// before, every calPeriod during, and after the timed phase.
func (d *runner) run(seconds float64, st []*store) {
	d.host.burst()
	d.deadline = time.Now().Add(time.Duration(seconds * float64(time.Second)))
	stop := make(chan struct{})
	var cal sync.WaitGroup
	cal.Add(1)
	go func() {
		defer cal.Done()
		d.calibrate(stop)
	}()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if d.in.plans != nil {
				d.editClient(c, st[c])
			} else {
				d.solveClient(c, st[c])
			}
		}()
	}
	wg.Wait()
	close(stop)
	cal.Wait()
	d.host.burst()
}

// calibrate runs a burst every calPeriod, holding the clients, until stop
// is closed.
func (d *runner) calibrate(stop <-chan struct{}) {
	tick := time.NewTicker(calPeriod)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		d.gate.Lock()
		d.host.burst()
		d.gate.Unlock()
	}
}

// solveClient takes stream positions c, c+clients, ...: a static
// interleave of one seeded order.
func (d *runner) solveClient(c int, st *store) {
	var buf bytes.Buffer
	stream := d.in.stream
	for pos := c; d.more(); pos += clients {
		if pos >= len(stream) && !d.in.cycle {
			break
		}
		id := stream[pos%len(stream)]
		in := &d.in.inputs[id]
		r := record{input: id}
		d.timed(&r, in.path(), in.body, &buf)
		if r.ok() {
			r.mismatch = !d.firstOrSame(id, buf.Bytes(), st.slab)
		}
		st.recs = append(st.recs, r)
	}
}

// firstOrSame stores body as the first answer to input id, or reports
// whether it is byte-identical to the first answer.
func (d *runner) firstOrSame(id int32, body []byte, sl *slab) bool {
	if p := d.first[id].Load(); p != nil {
		return bytes.Equal(*p, body)
	}
	cp := sl.copy(body)
	if d.first[id].CompareAndSwap(nil, &cp) {
		return true
	}
	return bytes.Equal(*d.first[id].Load(), body)
}

// editClient runs sessions c, c+clients, ...: each one create, the
// script's batches, and a close, until the phase ends.
func (d *runner) editClient(c int, st *store) {
	for s := c; ; s += clients {
		plan := d.in.plans[s%len(d.in.plans)]
		done, unclosed := d.session(plan, int32(s), d.more, func(r record) { st.recs = append(st.recs, r) }, st.slab)
		if !done {
			st.unclosed = unclosed
			return
		}
	}
}

const deltaPath = "/v1/coalesce/delta"

// session sends one session's requests while more allows; it reports
// whether the session ran to its close and, if more cut it short, the
// body that closes it. Records go to emit with their responses copied
// into sl.
func (d *runner) session(plan *sessionPlan, s int32, more func() bool, emit func(record), sl *slab) (done bool, unclosed []byte) {
	var buf bytes.Buffer
	send := func(step int16, body []byte) (record, bool) {
		if !more() {
			return record{}, false
		}
		r := record{input: s, step: step}
		d.timed(&r, deltaPath, body, &buf)
		r.body = sl.copy(buf.Bytes())
		emit(r)
		return r, true
	}
	r, ok := send(-1, plan.create)
	if !ok {
		return false, nil
	}
	var created struct {
		SessionID string `json:"session_id"`
		BaseHash  string `json:"base_hash"`
	}
	if !r.ok() || json.Unmarshal(r.body, &created) != nil {
		return true, nil // counted as failed; the next session starts over
	}
	closeBody := func(body []byte) []byte {
		body = append(body[:0], `{"op":"close","session_id":"`...)
		body = append(body, created.SessionID...)
		body = append(body, `","base_hash":"`...)
		body = append(body, created.BaseHash...)
		return append(body, `"}`...)
	}
	var body []byte
	for b := 0; b < editBatches; b++ {
		body = append(body[:0], `{"op":"delta","session_id":"`...)
		body = append(body, created.SessionID...)
		body = append(body, `","base_hash":"`...)
		body = append(body, created.BaseHash...)
		body = append(body, `","version":`...)
		body = strconv.AppendInt(body, int64(b), 10)
		body = append(body, `,"deltas":`...)
		body = append(body, plan.batches[b]...)
		body = append(body, '}')
		r, ok := send(int16(b), body)
		if !ok {
			return false, closeBody(nil)
		}
		if !r.ok() {
			break
		}
	}
	if _, ok = send(editBatches, closeBody(body)); !ok {
		return false, closeBody(nil)
	}
	return true, nil
}

// closeUnclosed closes, untimed, the sessions the end of the timed phase
// cut short, so that the servers' heap at the end holds no open session.
// A close that failed would show as a larger heap.
func (d *runner) closeUnclosed(st []*store) {
	var buf bytes.Buffer
	for _, s := range st {
		if s.unclosed != nil {
			d.post(deltaPath, s.unclosed, "", &buf)
		}
	}
}

// setupSend sends untimed requests (priming, warm-up) from clients
// goroutines and fails on any non-200 answer.
func (d *runner) setupSend(list []solveInput) error {
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := c; i < len(list); i += clients {
				status, _, err := d.post(list[i].path(), list[i].body, "", &buf)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %s", status, buf.String())
				}
				if err != nil {
					errs[c] = fmt.Errorf("setup %s: %w", list[i].path(), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// setupSessions runs the warm-up sessions to their close, spread over
// the clients.
func (d *runner) setupSessions(plans []*sessionPlan) error {
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sl := newSlab(0)
			for i := c; i < len(plans); i += clients {
				d.session(plans[i], int32(i), func() bool { return true }, func(r record) {
					if !r.ok() && errs[c] == nil {
						errs[c] = fmt.Errorf("setup session: status %d: %s", r.status, r.body)
					}
				}, sl)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// slab hands out copies of response bodies from chunks reserved before
// timing starts.
type slab struct {
	chunks [][]byte
	cur    []byte
}

const slabChunk = 1 << 20

func newSlab(reserve int) *slab {
	s := &slab{}
	for n := 0; n < reserve; n += slabChunk {
		s.chunks = append(s.chunks, make([]byte, 0, slabChunk))
	}
	return s
}

func (s *slab) copy(b []byte) []byte {
	if cap(s.cur)-len(s.cur) < len(b) {
		switch {
		case len(b) > slabChunk:
			return append([]byte(nil), b...)
		case len(s.chunks) > 0:
			s.cur, s.chunks = s.chunks[0], s.chunks[1:]
		default:
			s.cur = make([]byte, 0, slabChunk)
		}
	}
	n := len(s.cur)
	s.cur = append(s.cur, b...)
	return s.cur[n:len(s.cur):len(s.cur)]
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample reads the runtime counters the run reports. The live
// heap is what the last GC marked reachable.
type runtimeSample struct {
	liveBytes, allocBytes uint64
	gcCPU, totalCPU       float64
}

var runtimeMetricNames = []string{
	"/gc/heap/live:bytes",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		liveBytes:  s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// liveHeap collects twice and returns the live heap: the first collection
// moves what sync.Pools hold to their victim caches, the second frees it.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	return readRuntime().liveBytes
}

// poolRejected sums the engine's rejections over the topology's nodes.
func (d *runner) poolRejected() (int64, error) {
	var total int64
	for _, node := range d.topo.nodes {
		resp, err := d.client.Get(node + "/stats")
		if err != nil {
			return 0, err
		}
		var st service.Stats
		err = json.NewDecoder(resp.Body).Decode(&st)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, fmt.Errorf("%s/stats: %w", node, err)
		}
		total += st.Rejected
	}
	return total, nil
}
