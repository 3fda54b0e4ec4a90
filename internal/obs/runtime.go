package obs

import (
	"runtime/debug"
	"runtime/metrics"
	"time"
)

// DeclareRuntime declares the Go runtime families into r: goroutine
// count, heap occupancy and GC totals. Each is read on scrape, from
// runtime/metrics and debug.ReadGCStats, neither of which stops the
// world, so they never touch the request path.
func DeclareRuntime(r *Registry) {
	r.Gauge("regcoal_goroutines", "Current goroutine count.", runtimeMetric("/sched/goroutines:goroutines"))
	r.Gauge("regcoal_heap_alloc_bytes", "Bytes of allocated heap objects.", runtimeMetric("/memory/classes/heap/objects:bytes"))
	r.Gauge("regcoal_heap_objects", "Number of allocated heap objects.", runtimeMetric("/gc/heap/objects:objects"))
	r.Gauge("regcoal_next_gc_bytes", "Heap size target of the next GC cycle.", runtimeMetric("/gc/heap/goal:bytes"))
	r.Counter("regcoal_gc_runs_total", "Completed GC cycles.", runtimeMetric("/gc/cycles/total:gc-cycles"))
	r.DurationCounter("regcoal_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.", func() time.Duration {
		var s debug.GCStats
		debug.ReadGCStats(&s)
		return s.PauseTotal
	})
	r.Counter("regcoal_alloc_bytes_total", "Cumulative bytes allocated.", runtimeMetric("/gc/heap/allocs:bytes"))
}

// runtimeMetric reads one uint64 runtime/metrics value.
func runtimeMetric(name string) func() int64 {
	return func() int64 {
		s := []metrics.Sample{{Name: name}}
		metrics.Read(s)
		return int64(s[0].Value.Uint64())
	}
}
