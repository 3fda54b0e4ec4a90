package obs

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds a server's counter, gauge and histogram families. Each
// is declared once — name, help, label names, read function — and
// renders to both Prometheus text on /metrics (WritePrometheus) and the
// /stats object (Snapshot), keyed by StatsKey(name). Read functions
// sample existing state (an atomic's Load, a cache length), so the two
// surfaces cannot disagree. A labeled family with no series is omitted
// from both, as the strict linter rejects a header without samples. The
// zero value is ready to use.
type Registry struct {
	mu       sync.Mutex
	families []*family
}

// family is one declaration. Exactly one of value, values and hists is
// set; seconds marks a value that reads nanoseconds and renders as
// seconds.
type family struct {
	name, help, typ, key string
	labels               []string
	seconds              bool

	value  func() int64
	values func(emit func(label string, v int64))
	hists  func(emit func(h *Histogram, labels ...string))
}

// StatsKey is a family's /stats key: its name without the regcoal_
// prefix and the _total suffix.
func StatsKey(name string) string {
	return strings.TrimSuffix(strings.TrimPrefix(name, "regcoal_"), "_total")
}

// Counter declares an unlabeled counter.
func (r *Registry) Counter(name, help string, read func() int64) {
	r.declare(&family{name: name, help: help, typ: "counter", value: read})
}

// Gauge declares an unlabeled gauge.
func (r *Registry) Gauge(name, help string, read func() int64) {
	r.declare(&family{name: name, help: help, typ: "gauge", value: read})
}

// DurationCounter declares an unlabeled counter of elapsed time, which
// both surfaces render in seconds.
func (r *Registry) DurationCounter(name, help string, read func() time.Duration) {
	r.declare(&family{name: name, help: help, typ: "counter", seconds: true, value: func() int64 { return int64(read()) }})
}

// CounterVec declares a counter family with one label; read emits one
// value per label value.
func (r *Registry) CounterVec(name, help, label string, read func(emit func(label string, v int64))) {
	r.declare(&family{name: name, help: help, typ: "counter", labels: []string{label}, values: read})
}

// GaugeVec declares a gauge family with one label; read emits one value
// per label value.
func (r *Registry) GaugeVec(name, help, label string, read func(emit func(label string, v int64))) {
	r.declare(&family{name: name, help: help, typ: "gauge", labels: []string{label}, values: read})
}

// HistogramVec declares a latency histogram family over the label names
// labels; read emits one histogram per series with its label values, in
// the order of labels. /stats carries each one's QuantileSummary, keyed
// by the label values joined with "/".
func (r *Registry) HistogramVec(name, help string, labels []string, read func(emit func(h *Histogram, labels ...string))) {
	r.declare(&family{name: name, help: help, typ: "histogram", labels: labels, hists: read})
}

// declare adds f. Two families sharing a /stats key (a fortiori a name)
// can only be a programming error, so it panics.
func (r *Registry) declare(f *family) {
	f.key = StatsKey(f.name)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, g := range r.families {
		if g.key == f.key {
			panic(fmt.Sprintf("obs: metric family %s collides with %s", f.name, g.name))
		}
	}
	r.families = append(r.families, f)
}

func (r *Registry) list() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.families
}

// series is one labeled series: a value, or a histogram.
type series struct {
	labels []string
	v      int64
	h      *Histogram
}

// series reads a labeled family, sorted by label values (none for an
// unlabeled family).
func (f *family) series() []series {
	var out []series
	switch {
	case f.values != nil:
		f.values(func(label string, v int64) { out = append(out, series{labels: []string{label}, v: v}) })
	case f.hists != nil:
		f.hists(func(h *Histogram, labels ...string) { out = append(out, series{labels: labels, h: h}) })
	}
	slices.SortFunc(out, func(a, b series) int { return slices.Compare(a.labels, b.labels) })
	return out
}

// WritePrometheus renders every family in declaration order.
func (r *Registry) WritePrometheus(w io.Writer) {
	for _, f := range r.list() {
		ss := f.series()
		if f.value == nil && len(ss) == 0 {
			continue
		}
		writeHeader(w, f.name, f.help, f.typ)
		switch {
		case f.seconds:
			fmt.Fprintf(w, "%s %s\n", f.name, formatSeconds(f.value()))
		case f.value != nil:
			fmt.Fprintf(w, "%s %d\n", f.name, f.value())
		}
		for _, s := range ss {
			pairs := make([]string, len(f.labels))
			for i, name := range f.labels {
				pairs[i] = name + "=" + strconv.Quote(s.labels[i])
			}
			labels := strings.Join(pairs, ",")
			if s.h != nil {
				s.h.WritePrometheus(w, f.name, labels)
			} else {
				fmt.Fprintf(w, "%s{%s} %d\n", f.name, labels, s.v)
			}
		}
	}
}

// Snapshot is a registry's /stats object: an unlabeled family's value is
// an int64 (a float64 of seconds for a DurationCounter), a labeled
// family's an object keyed by label values (int64s, or QuantileSummary
// for histograms).
type Snapshot map[string]any

// Snapshot reads every family.
func (r *Registry) Snapshot() Snapshot {
	out := Snapshot{}
	for _, f := range r.list() {
		switch ss := f.series(); {
		case f.seconds:
			out[f.key] = float64(f.value()) / 1e9
		case f.value != nil:
			out[f.key] = f.value()
		case len(ss) == 0:
		case f.hists != nil:
			m := make(map[string]QuantileSummary, len(ss))
			for _, s := range ss {
				m[strings.Join(s.labels, "/")] = s.h.Summary()
			}
			out[f.key] = m
		default:
			m := make(map[string]int64, len(ss))
			for _, s := range ss {
				m[s.labels[0]] = s.v
			}
			out[f.key] = m
		}
	}
	return out
}

// Int returns an unlabeled family's value by /stats key (0 when absent).
func (s Snapshot) Int(key string) int64 {
	v, _ := s[key].(int64)
	return v
}

// Labels returns a labeled counter or gauge family's values by /stats
// key (nil when absent).
func (s Snapshot) Labels(key string) map[string]int64 {
	m, _ := s[key].(map[string]int64)
	return m
}

// Labeled is a small set of per-label values, one *T per label value,
// grown on a label's first use and never shrunk (a departed peer's last
// value stays readable). The zero value is ready to use. With on an
// existing label is lock-free and allocation-free: the map is
// copy-on-write behind an atomic pointer, so only a label's first use
// takes the lock and copies it. Labels are few (strategies, peers,
// shards) and arrive rarely, which keeps the copies cheap.
type Labeled[T any] struct {
	mu sync.Mutex
	m  atomic.Pointer[map[string]*T]
}

// With returns label's value, creating it on first use.
func (l *Labeled[T]) With(label string) *T {
	if p := l.m.Load(); p != nil {
		if v, ok := (*p)[label]; ok {
			return v
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	next := map[string]*T{}
	if p := l.m.Load(); p != nil {
		if v, ok := (*p)[label]; ok {
			return v
		}
		next = maps.Clone(*p)
	}
	v := new(T)
	next[label] = v
	l.m.Store(&next)
	return v
}

// Each calls fn for every label, in no particular order.
func (l *Labeled[T]) Each(fn func(label string, v *T)) {
	if p := l.m.Load(); p != nil {
		for k, v := range *p {
			fn(k, v)
		}
	}
}

// Read adapts the set to a CounterVec or GaugeVec read function, reading
// each label's value with get.
func (l *Labeled[T]) Read(get func(*T) int64) func(emit func(label string, v int64)) {
	return func(emit func(string, int64)) {
		l.Each(func(label string, v *T) { emit(label, get(v)) })
	}
}
