package obs

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer owns the trace lifecycle: a sync.Pool of Trace buffers, a
// fixed table of in-flight requests, two preallocated rings of finished
// traces — the most recent N and the slowest N — and the latency
// histograms every finished trace feeds (see Declare). Start and Finish
// are allocation-free in steady state (pool reuse, fixed-slot
// registration, copy-by-value into preallocated ring storage, atomic
// histogram adds); only the browse/JSON side allocates, and that runs on
// explicit /debug/requests hits.
type Tracer struct {
	pool sync.Pool

	request [NumEndpoints]Histogram            // end-to-end, per endpoint
	phase   [NumEndpoints][NumPhases]Histogram // per (endpoint, phase)

	mu     sync.Mutex
	active [maxActive]activeEntry
	recent []Trace // ring storage, preallocated
	next   int     // next recent slot
	filled int     // recent entries populated
	slow   []Trace // slowest-N storage, preallocated
	nslow  int

	slowFloor int64 // only traces at least this slow enter the slow ring
}

// maxActive bounds the in-flight request table. Requests beyond it are
// still traced; they just don't appear in the active view.
const maxActive = 256

type activeEntry struct {
	used     bool
	id       TraceID
	endpoint Endpoint
	start    time.Time
}

// NewTracer builds a tracer keeping the recentN most recent and slowN
// slowest finished traces; traces faster than slowFloor never enter the
// slow ring (keeps the ring from filling with cache hits).
func NewTracer(recentN, slowN int, slowFloor time.Duration) *Tracer {
	if recentN < 1 {
		recentN = 1
	}
	if slowN < 1 {
		slowN = 1
	}
	t := &Tracer{
		recent:    make([]Trace, recentN),
		slow:      make([]Trace, slowN),
		slowFloor: int64(slowFloor),
	}
	t.pool.New = func() any {
		tr := new(Trace)
		tr.activeSlot = -1
		return tr
	}
	return t
}

// The process's trace-ID mint: a counter and a random seed, shared by
// every tracer and the cluster router.
var (
	idSeed = randomSeed()
	idCtr  atomic.Uint64
)

func randomSeed() uint64 {
	var seed [8]byte
	if _, err := cryptorand.Read(seed[:]); err != nil {
		return uint64(time.Now().UnixNano())
	}
	return binary.LittleEndian.Uint64(seed[:])
}

// NewTraceID mints a fresh trace ID: two rounds of splitmix64 over the
// process-wide counter mixed with the seed. Unique per process, cheap,
// and allocation-free.
func NewTraceID() TraceID {
	n := idCtr.Add(1)
	var id TraceID
	binary.BigEndian.PutUint64(id[0:8], splitmix64(idSeed+n))
	binary.BigEndian.PutUint64(id[8:16], splitmix64(idSeed^(n*0x9e3779b97f4a7c15)))
	return id
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Declare declares the latency histograms Finish feeds into r:
// regcoal_request_duration_seconds per endpoint and
// regcoal_phase_duration_seconds per endpoint and phase. A series with
// no samples is left out, so an idle server renders neither family.
func (t *Tracer) Declare(r *Registry) {
	r.HistogramVec("regcoal_request_duration_seconds", "End-to-end request latency per endpoint.",
		[]string{"endpoint"}, func(emit func(*Histogram, ...string)) {
			for e := range NumEndpoints {
				if h := &t.request[e]; h.Count() > 0 {
					emit(h, e.String())
				}
			}
		})
	r.HistogramVec("regcoal_phase_duration_seconds", "Per-phase request latency (decode, canon, peer, cache, race, encode).",
		[]string{"endpoint", "phase"}, func(emit func(*Histogram, ...string)) {
			for e := range NumEndpoints {
				for p := range NumPhases {
					if h := &t.phase[e][p]; h.Count() > 0 {
						emit(h, e.String(), p.String())
					}
				}
			}
		})
}

// Start acquires a pooled trace for one request. id is the propagated
// upstream ID; pass a zero TraceID to mint a fresh one. The returned
// trace must be released with Finish.
func (t *Tracer) Start(e Endpoint, id TraceID) *Trace {
	tr := t.pool.Get().(*Trace)
	tr.reset()
	if id.IsZero() {
		id = NewTraceID()
	}
	tr.ID = id
	tr.Endpoint = e
	tr.Start = time.Now()
	t.mu.Lock()
	for i := range t.active {
		if !t.active[i].used {
			t.active[i] = activeEntry{used: true, id: id, endpoint: e, start: tr.Start}
			tr.activeSlot = i
			break
		}
	}
	t.mu.Unlock()
	return tr
}

// Finish closes the trace, feeds its end-to-end and per-phase durations
// into the latency histograms, records it into the recent (and, if slow
// enough, slow) rings by value, and returns the buffer to the pool. The
// caller must not touch tr afterwards.
func (t *Tracer) Finish(tr *Trace) {
	if tr == nil {
		return
	}
	tr.EndPhase()
	tr.DurNS = tr.Since()
	for _, sp := range tr.Phases[:tr.NPhases] {
		t.phase[tr.Endpoint][sp.Phase].Observe(time.Duration(sp.EndNS - sp.StartNS))
	}
	t.request[tr.Endpoint].Observe(time.Duration(tr.DurNS))
	t.mu.Lock()
	if tr.activeSlot >= 0 && tr.activeSlot < maxActive {
		t.active[tr.activeSlot].used = false
		tr.activeSlot = -1
	}
	t.recent[t.next] = *tr
	t.next = (t.next + 1) % len(t.recent)
	if t.filled < len(t.recent) {
		t.filled++
	}
	if tr.DurNS >= t.slowFloor {
		if t.nslow < len(t.slow) {
			t.slow[t.nslow] = *tr
			t.nslow++
		} else {
			// replace the fastest resident if the new trace is slower
			min := 0
			for i := 1; i < t.nslow; i++ {
				if t.slow[i].DurNS < t.slow[min].DurNS {
					min = i
				}
			}
			if tr.DurNS > t.slow[min].DurNS {
				t.slow[min] = *tr
			}
		}
	}
	t.mu.Unlock()
	t.pool.Put(tr)
}

// ActiveView is one in-flight request in the /debug/requests active
// list.
type ActiveView struct {
	ID        string    `json:"id"`
	Endpoint  string    `json:"endpoint"`
	Start     time.Time `json:"start"`
	ElapsedNS int64     `json:"elapsed_ns"`
}

// Active snapshots the in-flight request table.
func (t *Tracer) Active() []ActiveView {
	now := time.Now()
	out := make([]ActiveView, 0, 16)
	t.mu.Lock()
	for i := range t.active {
		if !t.active[i].used {
			continue
		}
		e := &t.active[i]
		out = append(out, ActiveView{
			ID:        e.id.String(),
			Endpoint:  e.endpoint.String(),
			Start:     e.start,
			ElapsedNS: int64(now.Sub(e.start)),
		})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ElapsedNS > out[j].ElapsedNS })
	return out
}

// Recent returns views of up to n most recently finished traces, newest
// first (n <= 0 means all retained).
func (t *Tracer) Recent(n int) []TraceView {
	t.mu.Lock()
	views := make([]TraceView, 0, t.filled)
	for i := 0; i < t.filled; i++ {
		idx := (t.next - 1 - i + 2*len(t.recent)) % len(t.recent)
		views = append(views, t.recent[idx].View())
	}
	t.mu.Unlock()
	if n > 0 && len(views) > n {
		views = views[:n]
	}
	return views
}

// Slow returns views of up to n retained slowest traces, slowest first.
func (t *Tracer) Slow(n int) []TraceView {
	t.mu.Lock()
	traces := make([]Trace, t.nslow)
	copy(traces, t.slow[:t.nslow])
	t.mu.Unlock()
	sort.Slice(traces, func(i, j int) bool { return traces[i].DurNS > traces[j].DurNS })
	if n > 0 && len(traces) > n {
		traces = traces[:n]
	}
	views := make([]TraceView, len(traces))
	for i := range traces {
		views[i] = traces[i].View()
	}
	return views
}

// ServeDebug is the /debug/requests handler. Query parameters:
// view=recent|slow|active (default recent), format=json|text (default
// json), n=limit (default 32).
func (t *Tracer) ServeDebug(w http.ResponseWriter, r *http.Request) {
	view := r.URL.Query().Get("view")
	if view == "" {
		view = "recent"
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "json"
	}
	n := 32
	if s := r.URL.Query().Get("n"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			n = v
		}
	}

	var payload any
	var traces []TraceView
	switch view {
	case "active":
		payload = t.Active()
	case "slow":
		traces = t.Slow(n)
		payload = traces
	case "recent":
		traces = t.Recent(n)
		payload = traces
	default:
		http.Error(w, `unknown view (want active, recent, or slow)`, http.StatusBadRequest)
		return
	}

	if format == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if view == "active" {
			for _, a := range payload.([]ActiveView) {
				dur := time.Duration(a.ElapsedNS).Round(time.Microsecond)
				w.Write([]byte("trace " + a.ID + " endpoint=" + a.Endpoint + " elapsed=" + dur.String() + " (in flight)\n"))
			}
			return
		}
		for _, v := range traces {
			writeViewText(w, v)
		}
		return
	}

	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(map[string]any{"view": view, "requests": payload})
}
