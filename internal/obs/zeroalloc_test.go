package obs

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestZeroAllocInstrumentation holds the layer to its contract:
// recording a latency sample, capturing a full trace — acquire, phase
// spans, race timeline, finish into the latency histograms and the
// rings — counting into an existing label and minting a trace ID
// allocate nothing in steady state. It runs in go test ./... and, under
// the race detector, in go test -race ./....
func TestZeroAllocInstrumentation(t *testing.T) {
	var h Histogram
	tracer := NewTracer(32, 8, 0)

	// Warm the pool so steady state is measured, not first-touch.
	for i := 0; i < 4; i++ {
		tracer.Finish(tracer.Start(EndpointCoalesce, TraceID{}))
	}

	t.Run("HistogramObserve", func(t *testing.T) {
		allocs := testing.AllocsPerRun(1000, func() {
			h.Observe(3 * time.Millisecond)
		})
		if allocs != 0 {
			t.Errorf("histogram record allocates %.1f/op, want 0", allocs)
		}
	})

	t.Run("SpanCapture", func(t *testing.T) {
		allocs := testing.AllocsPerRun(1000, func() {
			tr := tracer.Start(EndpointCoalesce, TraceID{})
			tr.BeginPhase(PhaseDecode)
			tr.BeginPhase(PhaseCanon)
			tr.BeginPhase(PhaseRace)
			tr.AddMember("aggressive", 0, 100, MemberWon)
			tr.AddMember("conservative", 0, 900, MemberCutoff)
			tr.Winner = "aggressive"
			tr.DeadlineHit = true
			tr.BeginPhase(PhaseEncode)
			tracer.Finish(tr)
		})
		if allocs != 0 {
			t.Errorf("span capture allocates %.1f/op, want 0", allocs)
		}
		if n := tracer.phase[EndpointCoalesce][PhaseEncode].Count(); n < 1000 {
			t.Errorf("Finish recorded %d encode phases, want at least 1000", n)
		}
	})

	t.Run("LabeledWithExisting", func(t *testing.T) {
		var won Labeled[atomic.Int64]
		won.With("aggressive")
		allocs := testing.AllocsPerRun(1000, func() {
			won.With("aggressive").Add(1)
		})
		if allocs != 0 {
			t.Errorf("With on an existing label allocates %.1f/op, want 0", allocs)
		}
	})

	t.Run("TraceIDMint", func(t *testing.T) {
		allocs := testing.AllocsPerRun(1000, func() {
			_ = NewTraceID()
		})
		if allocs != 0 {
			t.Errorf("NewTraceID allocates %.1f/op, want 0", allocs)
		}
	})
}
