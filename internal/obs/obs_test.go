package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestBucketIndexBounds(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1 << 20, 20}, {(1 << 20) + 1, 21}, {1 << 40, histBuckets - 1}, {1<<62 + 7, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.ns); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
		if c.ns > 0 && c.ns <= bucketUpperNS(histBuckets-1) {
			idx := bucketIndex(c.ns)
			if c.ns > bucketUpperNS(idx) {
				t.Errorf("ns %d above its bucket %d upper bound %d", c.ns, idx, bucketUpperNS(idx))
			}
			if idx > 0 && c.ns <= bucketUpperNS(idx-1) {
				t.Errorf("ns %d fits bucket %d, placed in %d", c.ns, idx-1, idx)
			}
		}
	}
}

func TestHistogramQuantileWithinFactorTwo(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Observe(time.Millisecond) // 1e6 ns -> bucket upper bound 2^20 = 1048576
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		got := int64(h.Quantile(q))
		if got < 1e6 || got > 2e6 {
			t.Errorf("Quantile(%g) = %d ns, want within [1e6, 2e6]", q, got)
		}
	}
	if h.Count() != 1000 {
		t.Errorf("Count = %d, want 1000", h.Count())
	}
	if h.Sum() != 1000*time.Millisecond {
		t.Errorf("Sum = %v, want 1s", h.Sum())
	}
	s := h.Summary()
	if s.MeanNS != 1e6 || s.P50NS != s.P99NS {
		t.Errorf("unexpected summary %+v", s)
	}
}

func TestHistogramQuantileSpread(t *testing.T) {
	var h Histogram
	// 90 fast samples, 10 slow: p50 must land near fast, p99 near slow.
	for i := 0; i < 90; i++ {
		h.Observe(10 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}
	if p50 := h.Quantile(0.50); p50 > 32*time.Microsecond {
		t.Errorf("p50 = %v, want <= 32µs", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 100*time.Millisecond {
		t.Errorf("p99 = %v, want >= 100ms", p99)
	}
}

func TestHistogramPrometheusLints(t *testing.T) {
	tracer := NewTracer(4, 4, 0)
	tr := tracer.Start(EndpointCoalesce, TraceID{})
	tr.BeginPhase(PhaseDecode)
	tr.BeginPhase(PhaseRace)
	tracer.Finish(tr)
	tracer.Finish(tracer.Start(EndpointSpill, TraceID{}))
	var r Registry
	tracer.Declare(&r)
	DeclareRuntime(&r)
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	if problems := LintPrometheus(buf.String()); len(problems) != 0 {
		t.Fatalf("lint problems:\n%s", strings.Join(problems, "\n"))
	}
	out := buf.String()
	for _, want := range []string{
		`regcoal_request_duration_seconds_bucket{endpoint="coalesce",le="+Inf"} 1`,
		`regcoal_request_duration_seconds_count{endpoint="spill"} 1`,
		`regcoal_phase_duration_seconds_bucket{endpoint="coalesce",phase="decode",le="+Inf"} 1`,
		`regcoal_phase_duration_seconds_bucket{endpoint="coalesce",phase="race",le="+Inf"} 1`,
		"\nregcoal_goroutines ",
		"\nregcoal_gc_pause_seconds_total ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(out, `endpoint="allocate"`) {
		t.Error("zero-sample endpoint should be skipped")
	}

	// /stats carries the same histograms, a phase keyed endpoint/phase,
	// and the GC pause total in seconds.
	st := r.Snapshot()
	phases, _ := st["phase_duration_seconds"].(map[string]QuantileSummary)
	if len(phases) != 2 || phases["coalesce/decode"].Count != 1 || phases["coalesce/race"].Count != 1 {
		t.Errorf("phase_duration_seconds = %v", phases)
	}
	if _, ok := st["gc_pause_seconds"].(float64); !ok || st.Int("goroutines") < 1 {
		t.Errorf("runtime keys: gc_pause_seconds %v, goroutines %v", st["gc_pause_seconds"], st["goroutines"])
	}
}

func TestIdleSetPrometheusLints(t *testing.T) {
	// A server that has taken no traffic must still scrape clean: a
	// HELP/TYPE header with zero samples is a strict-lint violation, so
	// the latency families are omitted entirely until a request finishes.
	var r Registry
	NewTracer(4, 4, 0).Declare(&r)
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	if buf.Len() != 0 || len(r.Snapshot()) != 0 {
		t.Fatalf("idle tracer emitted %q and %v, want nothing", buf.String(), r.Snapshot())
	}
	DeclareRuntime(&r)
	r.WritePrometheus(&buf)
	if problems := LintPrometheus(buf.String()); len(problems) != 0 {
		t.Fatalf("lint problems:\n%s", strings.Join(problems, "\n"))
	}
}

func TestLintPrometheusCatchesViolations(t *testing.T) {
	cases := map[string]string{
		"no HELP":          "# TYPE foo counter\nfoo 1\n",
		"no TYPE":          "# HELP foo text\nfoo 1\n",
		"bad name":         "# HELP 9foo t\n# TYPE 9foo counter\n9foo 1\n",
		"duplicate series": "# HELP foo t\n# TYPE foo counter\nfoo 1\nfoo 1\n",
		"non-monotone buckets": "# HELP h t\n# TYPE h histogram\n" +
			`h_bucket{le="0.1"} 5` + "\n" + `h_bucket{le="0.2"} 3` + "\n" + `h_bucket{le="+Inf"} 5` + "\n" +
			"h_sum 1\nh_count 5\n",
		"le out of order": "# HELP h t\n# TYPE h histogram\n" +
			`h_bucket{le="0.2"} 1` + "\n" + `h_bucket{le="0.1"} 1` + "\n" + `h_bucket{le="+Inf"} 1` + "\n" +
			"h_sum 1\nh_count 1\n",
		"missing +Inf": "# HELP h t\n# TYPE h histogram\n" +
			`h_bucket{le="0.1"} 1` + "\nh_sum 1\nh_count 1\n",
		"count mismatch": "# HELP h t\n# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 3` + "\nh_sum 1\nh_count 5\n",
	}
	for name, payload := range cases {
		if problems := LintPrometheus(payload); len(problems) == 0 {
			t.Errorf("%s: lint passed, want failure", name)
		}
	}
	clean := "# HELP ok t\n# TYPE ok gauge\nok 42\n"
	if problems := LintPrometheus(clean); len(problems) != 0 {
		t.Errorf("clean payload flagged: %v", problems)
	}
}

func TestTraceIDRoundTrip(t *testing.T) {
	id := NewTraceID()
	if id.IsZero() {
		t.Fatal("minted zero ID")
	}
	s := id.String()
	if len(s) != 32 {
		t.Fatalf("String() length %d, want 32", len(s))
	}
	back, ok := ParseTraceID(s)
	if !ok || back != id {
		t.Fatalf("round trip failed: %s -> %v ok=%v", s, back, ok)
	}
	if _, ok := ParseTraceID("xyz"); ok {
		t.Error("parsed malformed ID")
	}
	if _, ok := ParseTraceID(strings.Repeat("0", 32)); ok {
		t.Error("parsed zero ID as valid")
	}
	if id2 := NewTraceID(); id2 == id {
		t.Error("consecutive IDs collide")
	}
}

func TestTracePhasesAndHeader(t *testing.T) {
	tr := NewTracer(4, 4, 0)
	trace := tr.Start(EndpointCoalesce, TraceID{})
	trace.BeginPhase(PhaseDecode)
	trace.EndPhase()
	trace.BeginPhase(PhaseRace) // left open: Finish must close it
	tr.Finish(trace)

	views := tr.Recent(0)
	if len(views) != 1 {
		t.Fatalf("recent = %d entries, want 1", len(views))
	}
	v := views[0]
	if len(v.Phases) != 2 || v.Phases[0].Phase != "decode" || v.Phases[1].Phase != "race" {
		t.Fatalf("unexpected phases %+v", v.Phases)
	}

	// header round trip from a fresh trace (rings store copies)
	trace2 := tr.Start(EndpointSpill, TraceID{})
	trace2.BeginPhase(PhaseCanon)
	time.Sleep(time.Millisecond)
	trace2.EndPhase()
	hdr := BuildPhasesHeader(trace2)
	if hdr == "" || !strings.HasPrefix(hdr, "canon=") {
		t.Fatalf("header = %q", hdr)
	}
	parsed := ParsePhases(hdr)
	if parsed["canon"] < int64(time.Millisecond)/2 {
		t.Fatalf("parsed canon = %d ns, want >= 0.5ms", parsed["canon"])
	}
	tr.Finish(trace2)

	if ParsePhases("") != nil {
		t.Error("empty header should parse to nil")
	}
	if got := ParsePhases("bogus=12;decode=5;decode=x"); len(got) != 1 || got["decode"] != 5 {
		t.Errorf("ParsePhases skip behavior wrong: %v", got)
	}
}

func TestTraceMemberTimeline(t *testing.T) {
	tr := NewTracer(4, 4, 0)
	trace := tr.Start(EndpointCoalesce, TraceID{})
	trace.AddMember("aggressive", 10, 500, MemberWon)
	trace.AddMember("exact", 10, 900, MemberCutoff)
	trace.Winner = "aggressive"
	trace.DeadlineHit = true
	tr.Finish(trace)

	v := tr.Recent(1)[0]
	if len(v.Race) != 2 || v.Race[0].State != "won" || v.Race[1].State != "cutoff" {
		t.Fatalf("unexpected race timeline %+v", v.Race)
	}
	if !v.DeadlineHit || v.Winner != "aggressive" {
		t.Fatalf("deadline/winner not preserved: %+v", v)
	}

	var text bytes.Buffer
	writeViewText(&text, v)
	for _, want := range []string{"deadline_hit", "winner=aggressive", "exact", "cutoff"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text view missing %q:\n%s", want, text.String())
		}
	}
}

func TestTracerSlowRing(t *testing.T) {
	tr := NewTracer(8, 2, 0)
	durs := []time.Duration{5 * time.Millisecond, time.Millisecond, 20 * time.Millisecond, 10 * time.Millisecond}
	for _, d := range durs {
		trace := tr.Start(EndpointCoalesce, TraceID{})
		trace.Start = time.Now().Add(-d) // backdate so DurNS ≈ d
		tr.Finish(trace)
	}
	slow := tr.Slow(0)
	if len(slow) != 2 {
		t.Fatalf("slow ring holds %d, want 2", len(slow))
	}
	if slow[0].DurationNS < slow[1].DurationNS {
		t.Error("slow views not sorted slowest-first")
	}
	if slow[1].DurationNS < int64(9*time.Millisecond) {
		t.Errorf("slow ring kept a fast trace: %v", time.Duration(slow[1].DurationNS))
	}
}

func TestTracerRecentRingWraps(t *testing.T) {
	tr := NewTracer(3, 1, time.Hour)
	for i := 0; i < 5; i++ {
		trace := tr.Start(EndpointBatch, TraceID{})
		tr.Finish(trace)
	}
	if got := len(tr.Recent(0)); got != 3 {
		t.Fatalf("recent = %d entries, want 3 after wrap", got)
	}
	if got := len(tr.Recent(2)); got != 2 {
		t.Fatalf("Recent(2) = %d entries", got)
	}
}

func TestTracerActiveView(t *testing.T) {
	tr := NewTracer(4, 4, 0)
	trace := tr.Start(EndpointAllocate, TraceID{})
	act := tr.Active()
	if len(act) != 1 || act[0].Endpoint != "allocate" || act[0].ID != trace.ID.String() {
		t.Fatalf("active = %+v", act)
	}
	tr.Finish(trace)
	if len(tr.Active()) != 0 {
		t.Error("finished trace still active")
	}
}

func TestServeDebugViews(t *testing.T) {
	tr := NewTracer(4, 4, 0)
	trace := tr.Start(EndpointCoalesce, TraceID{})
	trace.BeginPhase(PhaseDecode)
	trace.EndPhase()
	tr.Finish(trace)

	for _, view := range []string{"recent", "slow", "active"} {
		rec := httptest.NewRecorder()
		tr.ServeDebug(rec, httptest.NewRequest("GET", "/debug/requests?view="+view, nil))
		if rec.Code != 200 {
			t.Fatalf("view=%s status %d", view, rec.Code)
		}
		var payload struct {
			View     string            `json:"view"`
			Requests []json.RawMessage `json:"requests"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
			t.Fatalf("view=%s bad JSON: %v", view, err)
		}
		if payload.View != view {
			t.Errorf("view echoed as %q", payload.View)
		}
	}

	rec := httptest.NewRecorder()
	tr.ServeDebug(rec, httptest.NewRequest("GET", "/debug/requests?view=recent&format=text", nil))
	if !strings.Contains(rec.Body.String(), "endpoint=coalesce") {
		t.Errorf("text view missing trace line:\n%s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	tr.ServeDebug(rec, httptest.NewRequest("GET", "/debug/requests?view=bogus", nil))
	if rec.Code != 400 {
		t.Errorf("bogus view status %d, want 400", rec.Code)
	}
}

func TestSpliceTraceJSON(t *testing.T) {
	tr := NewTracer(4, 4, 0)
	trace := tr.Start(EndpointCoalesce, TraceID{})
	trace.BeginPhase(PhaseDecode)
	trace.EndPhase()
	trace.DurNS = trace.Since()

	body := []byte(`{"k":4,"moves_kept":3}`)
	out := SpliceTraceJSON(body, trace)
	if !bytes.HasPrefix(out, []byte(`{"k":4,"moves_kept":3,"trace":{`)) {
		t.Fatalf("splice prefix wrong: %s", out)
	}
	var decoded struct {
		K     int `json:"k"`
		Trace struct {
			ID     string      `json:"id"`
			Phases []PhaseView `json:"phases"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(out, &decoded); err != nil {
		t.Fatalf("spliced body not valid JSON: %v\n%s", err, out)
	}
	if decoded.K != 4 || decoded.Trace.ID != trace.ID.String() || len(decoded.Trace.Phases) != 1 {
		t.Fatalf("decoded splice wrong: %+v", decoded)
	}

	if got := SpliceTraceJSON([]byte(`[1,2]`), trace); !bytes.Equal(got, []byte(`[1,2]`)) {
		t.Error("non-object body should pass through unchanged")
	}
	if got := SpliceTraceJSON(body, nil); !bytes.Equal(got, body) {
		t.Error("nil trace should pass through unchanged")
	}
	tr.Finish(trace)
}

func TestNilTraceMethodsSafe(t *testing.T) {
	var tr *Trace
	tr.BeginPhase(PhaseDecode)
	if d := tr.EndPhase(); d != 0 {
		t.Error("nil EndPhase nonzero")
	}
	tr.AddMember("x", 0, 1, MemberFinished)
	if h := BuildPhasesHeader(nil); h != "" {
		t.Errorf("BuildPhasesHeader(nil) = %q", h)
	}
}
