package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRegistryRendersBothSurfaces declares one family of each shape and
// checks that the one declaration yields both the Prometheus text and
// the /stats object (a duration in seconds on both), that the text lints clean, that an empty labeled
// family is omitted from both, and that a duplicate declaration panics.
func TestRegistryRendersBothSurfaces(t *testing.T) {
	var hits, depth atomic.Int64
	hits.Store(7)
	depth.Store(3)
	var won Labeled[atomic.Int64]
	won.With("optimistic").Add(2)
	won.With("aggressive").Add(5)
	var lat Labeled[Histogram]
	lat.With("w1").Observe(3 * time.Millisecond)
	lat.With("w0").Observe(time.Millisecond)
	var idle Labeled[atomic.Int64]

	r := &Registry{}
	r.Counter("regcoal_cache_hits_total", "Cache hits.", hits.Load)
	r.Gauge("regcoal_queue_depth", "Queue depth.", depth.Load)
	r.CounterVec("regcoal_strategy_wins_total", "Wins per strategy.", "strategy", won.Read((*atomic.Int64).Load))
	r.GaugeVec("regcoal_replica_lag", "Lag per peer.", "peer", idle.Read((*atomic.Int64).Load))
	r.HistogramVec("regcoal_shard_latency_seconds", "Latency per shard.", []string{"shard"}, func(emit func(*Histogram, ...string)) {
		lat.Each(func(shard string, h *Histogram) { emit(h, shard) })
	})
	r.DurationCounter("regcoal_pause_seconds_total", "Pause time.", func() time.Duration { return 1500 * time.Millisecond })

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	text := buf.String()
	if problems := LintPrometheus(text); len(problems) != 0 {
		t.Fatalf("lint problems:\n%s\n%s", strings.Join(problems, "\n"), text)
	}
	for _, want := range []string{
		"# TYPE regcoal_cache_hits_total counter\nregcoal_cache_hits_total 7\n",
		"# TYPE regcoal_queue_depth gauge\nregcoal_queue_depth 3\n",
		"# TYPE regcoal_strategy_wins_total counter\n" +
			`regcoal_strategy_wins_total{strategy="aggressive"} 5` + "\n" +
			`regcoal_strategy_wins_total{strategy="optimistic"} 2` + "\n",
		"# TYPE regcoal_shard_latency_seconds histogram\n" + `regcoal_shard_latency_seconds_bucket{shard="w0",`,
		`regcoal_shard_latency_seconds_count{shard="w1"} 1`,
		"# TYPE regcoal_pause_seconds_total counter\nregcoal_pause_seconds_total 1.5\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "regcoal_replica_lag") {
		t.Errorf("empty labeled family rendered:\n%s", text)
	}

	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	want := `{"cache_hits":7,"pause_seconds":1.5,"queue_depth":3,` +
		`"shard_latency_seconds":{"w0":{"count":1,"mean_ns":1000000,"p50_ns":1048576,"p90_ns":1048576,"p99_ns":1048576},` +
		`"w1":{"count":1,"mean_ns":3000000,"p50_ns":4194304,"p90_ns":4194304,"p99_ns":4194304}},` +
		`"strategy_wins":{"aggressive":5,"optimistic":2}}`
	if string(data) != want {
		t.Errorf("/stats\n got %s\nwant %s", data, want)
	}
	if s := r.Snapshot(); s.Int("cache_hits") != 7 || s.Labels("strategy_wins")["aggressive"] != 5 {
		t.Errorf("snapshot accessors: %v", s)
	}

	defer func() {
		if recover() == nil {
			t.Error("duplicate family declaration did not panic")
		}
	}()
	r.Gauge("regcoal_cache_hits_total", "Again.", hits.Load)
}

// TestLabeledWithConcurrent grows and reads one set from many goroutines;
// run under -race it checks the copy-on-write growth.
func TestLabeledWithConcurrent(t *testing.T) {
	var set Labeled[atomic.Int64]
	labels := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				set.With(labels[(g+i)%len(labels)]).Add(1)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			set.Each(func(_ string, v *atomic.Int64) { v.Load() })
		}
	}()
	wg.Wait()
	var total int64
	n := 0
	set.Each(func(_ string, v *atomic.Int64) {
		total += v.Load()
		n++
	})
	if n != len(labels) || total != 8*400 {
		t.Fatalf("%d labels totalling %d, want %d totalling %d", n, total, len(labels), 8*400)
	}
}
