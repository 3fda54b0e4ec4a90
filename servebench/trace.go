package main

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"regcoal/internal/service"
)

// Spans are recorded from outside the program: around the router's and
// workers' http.Handlers, around the transports the harness passes them,
// and by the clients. Each span names its request by the harness-minted
// X-Regcoal-Trace-Id, which the router adopts and forwards and the worker
// stamps on its peer cache calls. Parents follow a fixed chain:
//
//	client → router.handle → router.forward → worker.handle
//	       → {worker.peer_fill, worker.push, worker.oplog_repl}
//
// On hot-single the client's child is worker.handle (the single service).
// The op-log push carries no trace ID; its parent is the worker.handle of
// the one request of its session that was in flight on that worker.
type spanKind uint8

const (
	spanClient spanKind = iota
	spanRouterHandle
	spanRouterForward
	spanWorkerHandle
	spanPeerFill
	spanPush
	spanOplog
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"client", "router.handle", "router.forward", "worker.handle",
	"worker.peer_fill", "worker.push", "worker.oplog_repl",
}

// span is one recorded interval, in nanoseconds since the run's base time.
type span struct {
	trace  string
	kind   spanKind
	node   int8  // worker index for worker-side spans, -1 for the client and router
	status int16 // transport spans: response status, 0 on transport error
	start  int64
	end    int64

	// worker.oplog_repl: the pushed record, read after the run for its
	// session id so that nothing is decoded on the measured path.
	pushed func() (io.ReadCloser, error)
}

// recorder keeps spans in memory while on; the timed phase turns it on,
// so setup traffic is never recorded.
type recorder struct {
	base  time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// handler wraps a client-facing handler with a span per traced /v1/
// request; a nil recorder returns h unchanged.
func (r *recorder) handler(kind spanKind, node int, h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		trace := req.Header.Get(service.TraceIDHeader)
		if !r.on.Load() || trace == "" || !strings.HasPrefix(req.URL.Path, "/v1/") {
			h.ServeHTTP(w, req)
			return
		}
		start := r.now()
		h.ServeHTTP(w, req)
		r.add(span{trace: trace, kind: kind, node: int8(node), start: start, end: r.now()})
	})
}

// spanTransport records the outbound calls the router (node -1) and the
// workers make: forwards, peer fills, pushes and op-log replication. A
// span ends when the caller closes the response body.
type spanTransport struct {
	rec  *recorder
	node int8
	next http.RoundTripper
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	kind, ok := classify(req)
	if !ok || !t.rec.on.Load() {
		return t.next.RoundTrip(req)
	}
	s := span{trace: req.Header.Get(service.TraceIDHeader), kind: kind, node: t.node}
	if kind == spanOplog {
		s.pushed = req.GetBody
	}
	s.start = t.rec.now()
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		s.end = t.rec.now()
		t.rec.add(s)
		return nil, err
	}
	s.status = int16(resp.StatusCode)
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		s.end = t.rec.now()
		t.rec.add(s)
	}}
	return resp, nil
}

// classify names the span an outbound request opens, if any.
func classify(req *http.Request) (spanKind, bool) {
	switch {
	case req.URL.Path == "/internal/cache" && req.Method == http.MethodGet:
		return spanPeerFill, true
	case req.URL.Path == "/internal/cache" && req.Method == http.MethodPut:
		return spanPush, true
	case req.URL.Path == "/internal/session/log":
		return spanOplog, true
	case strings.HasPrefix(req.URL.Path, "/v1/") && req.Header.Get(service.TraceIDHeader) != "":
		return spanRouterForward, true
	}
	return 0, false
}

// pushedSession reads the session id out of an op-log push's record.
func pushedSession(s span) string {
	if s.pushed == nil {
		return ""
	}
	body, err := s.pushed()
	if err != nil {
		return ""
	}
	defer body.Close()
	var rec struct {
		SessionID string `json:"session_id"`
	}
	if json.NewDecoder(body).Decode(&rec) != nil {
		return ""
	}
	return rec.SessionID
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// linked is the span set of one run with every span's parent resolved.
type linked struct {
	spans  []span
	parent []int // index into spans, -1 for client spans
}

// link resolves parents by the fixed chain. sessionOf maps a trace to the
// session its request belongs to (edit-cluster); orphans counts spans
// whose parent could not be found.
func link(spans []span, cluster bool, sessionOf map[string]string) (l linked, orphans int) {
	l.spans = spans
	l.parent = make([]int, len(spans))
	byTrace := make(map[string][]int)
	for i, s := range spans {
		if s.trace != "" {
			byTrace[s.trace] = append(byTrace[s.trace], i)
		}
	}
	// Op-log pushes carry no trace: index the worker.handle spans of each
	// session by worker, to find the one in flight around the push.
	handlesOf := make(map[string][]int)
	for i, s := range spans {
		if s.kind == spanWorkerHandle {
			if sess := sessionOf[s.trace]; sess != "" {
				handlesOf[sess] = append(handlesOf[sess], i)
			}
		}
	}
	contains := func(p, c span) bool { return p.start <= c.start && c.end <= p.end }
	find := func(c span, kind spanKind, sameNode bool) int {
		for _, j := range byTrace[c.trace] {
			p := spans[j]
			if p.kind == kind && (!sameNode || p.node == c.node) && contains(p, c) {
				return j
			}
		}
		return -1
	}
	for i, s := range spans {
		p := -1
		switch s.kind {
		case spanClient:
			l.parent[i] = -1
			continue
		case spanRouterHandle:
			p = find(s, spanClient, false)
		case spanRouterForward:
			p = find(s, spanRouterHandle, false)
		case spanWorkerHandle:
			if cluster {
				p = find(s, spanRouterForward, false)
			} else {
				p = find(s, spanClient, false)
			}
		case spanPeerFill, spanPush:
			p = find(s, spanWorkerHandle, true)
		case spanOplog:
			for _, j := range handlesOf[pushedSession(s)] {
				if spans[j].node == s.node && contains(spans[j], s) {
					p = j
					break
				}
			}
		}
		if p < 0 {
			orphans++
		}
		l.parent[i] = p
	}
	return l, orphans
}

// selfTimes returns each span's duration minus the part of it that its
// children cover.
func (l linked) selfTimes() []int64 {
	children := make([][]int, len(l.spans))
	for i, p := range l.parent {
		if p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	self := make([]int64, len(l.spans))
	for i, s := range l.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return l.spans[kids[a]].start < l.spans[kids[b]].start })
		covered, reach := int64(0), s.start
		for _, k := range kids {
			lo, hi := max(l.spans[k].start, reach), min(l.spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// spanRecord is one line of a <workload>.spans.jsonl file. Service
// phases come from the X-Regcoal-Phases header, which reports durations
// but not offsets, so their records carry dur_ns instead of start and end.
type spanRecord struct {
	Trace   string `json:"trace"`
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	Node    int    `json:"node"` // worker index; -1 for the client and router
	StartNS int64  `json:"start_ns,omitempty"`
	EndNS   int64  `json:"end_ns,omitempty"`
	DurNS   int64  `json:"dur_ns,omitempty"`
}

// writeSpans writes every span, then each worker.handle's phases as its
// children, one JSON object per line.
func writeSpans(w io.Writer, l linked, phasesOf map[string]map[string]int64) error {
	enc := json.NewEncoder(w)
	id := len(l.spans)
	for i, s := range l.spans {
		if err := enc.Encode(spanRecord{Trace: s.trace, ID: i, Name: spanNames[s.kind], Parent: l.parent[i],
			Node: int(s.node), StartNS: s.start, EndNS: s.end}); err != nil {
			return err
		}
		if s.kind != spanWorkerHandle {
			continue
		}
		ph := phasesOf[s.trace]
		names := make([]string, 0, len(ph))
		for n := range ph {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if err := enc.Encode(spanRecord{Trace: s.trace, ID: id, Name: "service." + n, Parent: i, Node: int(s.node), DurNS: ph[n]}); err != nil {
				return err
			}
			id++
		}
	}
	return nil
}
