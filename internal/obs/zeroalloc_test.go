package obs

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestZeroAllocInstrumentation is the CI alloc gate for the tentpole
// contract: recording a latency sample, capturing a full trace —
// acquire, phase spans, race timeline, finish-to-ring — and counting
// into an existing label allocate nothing in steady state. The name
// matches the bench-smoke job's ZeroAlloc test filter, so a regression
// here fails CI under the race detector too.
func TestZeroAllocInstrumentation(t *testing.T) {
	var set Set
	tracer := NewTracer(32, 8, 0)

	// Warm the pool so steady state is measured, not first-touch.
	for i := 0; i < 4; i++ {
		tracer.Finish(tracer.Start(EndpointCoalesce, TraceID{}))
	}

	t.Run("HistogramObserve", func(t *testing.T) {
		allocs := testing.AllocsPerRun(1000, func() {
			set.ObserveRequest(EndpointCoalesce, 3*time.Millisecond)
			set.ObservePhase(EndpointCoalesce, PhaseRace, time.Millisecond)
		})
		if allocs != 0 {
			t.Errorf("histogram record allocates %.1f/op, want 0", allocs)
		}
	})

	t.Run("SpanCapture", func(t *testing.T) {
		allocs := testing.AllocsPerRun(1000, func() {
			tr := tracer.Start(EndpointCoalesce, TraceID{})
			tr.BeginPhase(PhaseDecode)
			set.ObservePhase(EndpointCoalesce, PhaseDecode, tr.EndPhase())
			tr.BeginPhase(PhaseCanon)
			set.ObservePhase(EndpointCoalesce, PhaseCanon, tr.EndPhase())
			tr.BeginPhase(PhaseRace)
			tr.AddMember("aggressive", 0, 100, MemberWon)
			tr.AddMember("conservative", 0, 900, MemberCutoff)
			tr.Winner = "aggressive"
			tr.DeadlineHit = true
			set.ObservePhase(EndpointCoalesce, PhaseRace, tr.EndPhase())
			tr.BeginPhase(PhaseEncode)
			set.ObservePhase(EndpointCoalesce, PhaseEncode, tr.EndPhase())
			set.ObserveRequest(EndpointCoalesce, time.Duration(tr.Since()))
			tracer.Finish(tr)
		})
		if allocs != 0 {
			t.Errorf("span capture allocates %.1f/op, want 0", allocs)
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
			_ = tracer.NewID()
		})
		if allocs != 0 {
			t.Errorf("NewID allocates %.1f/op, want 0", allocs)
		}
	})
}
