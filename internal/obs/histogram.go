// Package obs is the service's allocation-free observability layer:
// log-bucketed atomic latency histograms (histogram.go), the registry
// that declares every metric family once and renders it to both
// /metrics and /stats (registry.go, with the Go runtime families in
// runtime.go), per-request traces with phase spans and portfolio-race
// timelines captured into pooled fixed-size buffers and fed into the
// latency histograms (trace.go, tracer.go), and a strict Prometheus
// text-format checker (promlint.go) that keeps every tier's /metrics
// output honest.
//
// The layer is built for the hot path it instruments: recording a
// latency sample or a span is a handful of atomic operations into
// preallocated memory — no locks, no allocations — so the PR 5
// AllocsPerRun==0 gates hold with instrumentation enabled. Anything
// that allocates (JSON rendering, ring snapshots, the debug endpoint)
// happens off the request path, on scrape or on explicit request.
package obs

import (
	"fmt"
	"io"
	"math/bits"
	"strconv"
	"sync/atomic"
	"time"
)

// histBuckets is the fixed bucket count. Bucket i counts samples whose
// duration in nanoseconds d satisfies 2^(i-1) < d <= 2^i (bucket 0
// holds d <= 1ns); the last bucket additionally absorbs everything
// larger, acting as the +Inf overflow. 2^38 ns is about 4.6 minutes —
// far beyond the service's 30s deadline clamp — so real samples never
// saturate.
const histBuckets = 39

// Histogram is a fixed-size log2-bucketed latency histogram. Observe is
// lock-free and allocation-free; the zero value is ready to use. All
// exported read methods are safe to call concurrently with writers (they
// read each counter atomically; a scrape racing a record may be off by
// the in-flight sample, which Prometheus semantics permit).
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sumNS   atomic.Int64
}

// bucketIndex maps a nanosecond duration onto its bucket.
func bucketIndex(ns int64) int {
	if ns <= 1 {
		return 0
	}
	i := bits.Len64(uint64(ns - 1)) // smallest i with ns <= 2^i
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketUpperNS is the inclusive upper bound of bucket i in nanoseconds.
func bucketUpperNS(i int) int64 { return int64(1) << uint(i) }

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketIndex(ns)].Add(1)
	h.count.Add(1)
	h.sumNS.Add(ns)
}

// Count reports the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reports the total of all recorded samples.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNS.Load()) }

// Quantile estimates the q-quantile (q in [0,1]) of the recorded
// samples: it walks the cumulative bucket counts and returns the upper
// bound of the bucket holding the q-th sample. With log2 buckets the
// estimate is within 2x of the true value, which is what a latency
// dashboard needs; exact percentiles come from traces. Returns 0 when
// empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum > rank {
			return time.Duration(bucketUpperNS(i))
		}
	}
	return time.Duration(bucketUpperNS(histBuckets - 1))
}

// QuantileSummary is a histogram's compact quantile snapshot, the JSON
// shape of a histogram series on /stats.
type QuantileSummary struct {
	Count uint64 `json:"count"`
	// MeanNS is the exact arithmetic mean; the quantiles are log2-bucket
	// upper bounds (within 2x).
	MeanNS int64 `json:"mean_ns"`
	P50NS  int64 `json:"p50_ns"`
	P90NS  int64 `json:"p90_ns"`
	P99NS  int64 `json:"p99_ns"`
}

// Summary snapshots count, mean, and the dashboard quantiles.
func (h *Histogram) Summary() QuantileSummary {
	count := h.count.Load()
	s := QuantileSummary{Count: count}
	if count == 0 {
		return s
	}
	s.MeanNS = h.sumNS.Load() / int64(count)
	s.P50NS = int64(h.Quantile(0.50))
	s.P90NS = int64(h.Quantile(0.90))
	s.P99NS = int64(h.Quantile(0.99))
	return s
}

// WritePrometheus renders the histogram as one Prometheus histogram
// family. name must be a valid metric name (conventionally ending in
// _seconds); labels is either empty or a comma-joined list of
// label="value" pairs appended inside every sample's brace set. The
// caller writes the HELP/TYPE header once per family via writeHeader,
// so several histograms (e.g. one per endpoint) can share a family
// distinguished by labels.
func (h *Histogram) WritePrometheus(w io.Writer, name, labels string) {
	var cum uint64
	sep := ""
	if labels != "" {
		sep = ","
	}
	for i := 0; i < histBuckets-1; i++ {
		cum += h.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%s\"} %d\n",
			name, labels, sep, formatSeconds(bucketUpperNS(i)), cum)
	}
	cum += h.buckets[histBuckets-1].Load()
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %s\n", name, formatSeconds(h.sumNS.Load()))
		fmt.Fprintf(w, "%s_count %d\n", name, cum)
		return
	}
	fmt.Fprintf(w, "%s_sum{%s} %s\n", name, labels, formatSeconds(h.sumNS.Load()))
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, cum)
}

// writeHeader writes a family's HELP/TYPE pair.
func writeHeader(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// formatSeconds renders a nanosecond count as a seconds literal with no
// trailing zeros, so bucket bounds are stable strings (Prometheus
// compares le values textually when deduplicating).
func formatSeconds(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
}
