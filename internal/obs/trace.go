package obs

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// A Trace is one request's timeline: which phases it passed through,
// when, and — for solve requests — the full portfolio-race timeline
// (every member's start, finish or cut-off, and the winner). Traces are
// pooled and all capture happens into fixed-size arrays, so recording a
// span never allocates. A Trace is owned by exactly one request at a
// time; the handler goroutine and the pool worker it hands off to access
// it sequentially, never concurrently.

// TraceID is a 128-bit request identifier, rendered as 32 hex digits in
// the X-Regcoal-Trace-Id header. The router mints one per incoming
// request and forwards it; workers and the standalone service mint one
// only when the header is absent, so an ID names one request end to end
// across the tier.
type TraceID [16]byte

// IsZero reports whether the ID is unset.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the ID as 32 lowercase hex digits.
func (id TraceID) String() string {
	var buf [32]byte
	hex.Encode(buf[:], id[:])
	return string(buf[:])
}

// ParseTraceID decodes a header value. Only exact 32-digit hex strings
// are accepted; anything else reports false and the caller mints a
// fresh ID (a malformed inbound header must not collapse distinct
// requests onto one trace identity).
func ParseTraceID(s string) (TraceID, bool) {
	var id TraceID
	if len(s) != 32 {
		return id, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return TraceID{}, false
	}
	return id, !id.IsZero()
}

// maxPhaseSpans bounds the phase spans one trace holds: the solve path
// visits at most NumPhases phases, with headroom for repeats (a batch
// element re-entering decode).
const maxPhaseSpans = 8

// maxMemberSpans bounds the race-timeline entries. The largest portfolio
// (coalesce: 8 registry strategies + chordal-inc + vegdahl + exact) fits
// with room; an overflowing member set drops the excess rather than
// allocating.
const maxMemberSpans = 12

// PhaseSpan is one phase's [start, end) interval, nanosecond offsets
// from the trace start.
type PhaseSpan struct {
	Phase   Phase
	StartNS int64
	EndNS   int64
}

// MemberState classifies how a portfolio member's run ended.
type MemberState uint8

const (
	// MemberFinished: delivered an answer before the race returned.
	MemberFinished MemberState = iota
	// MemberWon: finished and its answer was selected.
	MemberWon
	// MemberCutoff: still running when the deadline fired; EndNS is the
	// moment the race stopped waiting, not the member's own finish.
	MemberCutoff
	// MemberDeclined: returned ErrInapplicable (outside its envelope).
	MemberDeclined
	// MemberError: failed with a real error.
	MemberError
)

var memberStateNames = [...]string{"finished", "won", "cutoff", "declined", "error"}

func (s MemberState) String() string {
	if int(s) < len(memberStateNames) {
		return memberStateNames[s]
	}
	return "unknown"
}

// MemberSpan is one portfolio member's run in the race timeline.
type MemberSpan struct {
	Name    string
	StartNS int64
	EndNS   int64
	State   MemberState
}

// Trace is the pooled per-request record. Exported fields are read by
// renderers after the request finishes; during the request they are
// written through the methods below.
type Trace struct {
	ID          TraceID
	Endpoint    Endpoint
	Family      string
	Start       time.Time
	DurNS       int64
	Cache       string // disposition: hit, miss, collapse, "" (non-solve)
	Winner      string
	DeadlineHit bool
	Status      int

	Phases  [maxPhaseSpans]PhaseSpan
	NPhases int

	Members  [maxMemberSpans]MemberSpan
	NMembers int

	// open phase bookkeeping (BeginPhase/EndPhase)
	openPhase   Phase
	openStartNS int64
	phaseOpen   bool

	// activeSlot is the index in the tracer's fixed active-request table,
	// -1 when the trace was not registered (table full or standalone use).
	activeSlot int
}

// reset clears the trace for reuse, keeping nothing from the previous
// request.
func (t *Trace) reset() {
	*t = Trace{activeSlot: -1}
}

// Since reports the nanosecond offset from the trace start.
func (t *Trace) Since() int64 { return int64(time.Since(t.Start)) }

// BeginPhase opens a phase span at now. An already-open phase is closed
// first, so mis-paired calls degrade to adjacent spans instead of
// corrupting the record.
func (t *Trace) BeginPhase(p Phase) {
	if t == nil {
		return
	}
	if t.phaseOpen {
		t.EndPhase()
	}
	t.openPhase = p
	t.openStartNS = t.Since()
	t.phaseOpen = true
}

// EndPhase closes the open phase span and returns its duration (0 when
// no phase is open).
func (t *Trace) EndPhase() time.Duration {
	if t == nil || !t.phaseOpen {
		return 0
	}
	t.phaseOpen = false
	end := t.Since()
	if t.NPhases < maxPhaseSpans {
		t.Phases[t.NPhases] = PhaseSpan{Phase: t.openPhase, StartNS: t.openStartNS, EndNS: end}
		t.NPhases++
	}
	return time.Duration(end - t.openStartNS)
}

// AddMember appends one race-timeline entry; entries beyond the fixed
// capacity are dropped.
func (t *Trace) AddMember(name string, startNS, endNS int64, state MemberState) {
	if t == nil || t.NMembers >= maxMemberSpans {
		return
	}
	t.Members[t.NMembers] = MemberSpan{Name: name, StartNS: startNS, EndNS: endNS, State: state}
	t.NMembers++
}

// TraceView is the JSON rendering of a trace (the ?trace=1 response
// field and the /debug/requests entries).
type TraceView struct {
	ID          string       `json:"id"`
	Endpoint    string       `json:"endpoint"`
	Family      string       `json:"family,omitempty"`
	Start       time.Time    `json:"start"`
	DurationNS  int64        `json:"duration_ns"`
	Cache       string       `json:"cache,omitempty"`
	Winner      string       `json:"winner,omitempty"`
	DeadlineHit bool         `json:"deadline_hit,omitempty"`
	Status      int          `json:"status,omitempty"`
	Phases      []PhaseView  `json:"phases,omitempty"`
	Race        []MemberView `json:"race,omitempty"`
}

// PhaseView is one phase span in JSON form.
type PhaseView struct {
	Phase   string `json:"phase"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// MemberView is one race-timeline entry in JSON form.
type MemberView struct {
	Strategy string `json:"strategy"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	State    string `json:"state"`
}

// View builds the JSON rendering. Allocates; called off the hot path.
func (t *Trace) View() TraceView {
	v := TraceView{
		ID:          t.ID.String(),
		Endpoint:    t.Endpoint.String(),
		Family:      t.Family,
		Start:       t.Start,
		DurationNS:  t.DurNS,
		Cache:       t.Cache,
		Winner:      t.Winner,
		DeadlineHit: t.DeadlineHit,
		Status:      t.Status,
	}
	for i := 0; i < t.NPhases; i++ {
		sp := t.Phases[i]
		v.Phases = append(v.Phases, PhaseView{Phase: sp.Phase.String(), StartNS: sp.StartNS, EndNS: sp.EndNS})
	}
	for i := 0; i < t.NMembers; i++ {
		m := t.Members[i]
		v.Race = append(v.Race, MemberView{Strategy: m.Name, StartNS: m.StartNS, EndNS: m.EndNS, State: m.State.String()})
	}
	return v
}

// writeViewText renders a trace snapshot as a human-readable timeline,
// the text view of /debug/requests.
func writeViewText(w io.Writer, v TraceView) {
	fmt.Fprintf(w, "trace %s endpoint=%s", v.ID, v.Endpoint)
	if v.Family != "" {
		fmt.Fprintf(w, " family=%s", v.Family)
	}
	fmt.Fprintf(w, " dur=%v", time.Duration(v.DurationNS).Round(time.Microsecond))
	if v.Cache != "" {
		fmt.Fprintf(w, " cache=%s", v.Cache)
	}
	if v.DeadlineHit {
		fmt.Fprint(w, " deadline_hit")
	}
	if v.Winner != "" {
		fmt.Fprintf(w, " winner=%s", v.Winner)
	}
	fmt.Fprintln(w)
	if len(v.Phases) > 0 {
		fmt.Fprint(w, "  phases:")
		for i, p := range v.Phases {
			if i > 0 {
				fmt.Fprint(w, " |")
			}
			fmt.Fprintf(w, " %s %v", p.Phase, time.Duration(p.EndNS-p.StartNS).Round(time.Microsecond))
		}
		fmt.Fprintln(w)
	}
	if len(v.Race) > 0 {
		fmt.Fprintln(w, "  race:")
		for _, m := range v.Race {
			fmt.Fprintf(w, "    %-20s %10v - %10v  %s\n", m.Strategy,
				time.Duration(m.StartNS).Round(time.Microsecond),
				time.Duration(m.EndNS).Round(time.Microsecond), m.State)
		}
	}
}

// SpliceTraceJSON appends the trace as a "trace" field to a rendered
// JSON object body: {...} becomes {...,"trace":{...}}. The body bytes
// before the splice point are untouched, so a response without ?trace=1
// stays byte-identical to one rendered without tracing at all. Bodies
// that are not JSON objects are returned unchanged.
func SpliceTraceJSON(body []byte, t *Trace) []byte {
	if t == nil {
		return body
	}
	trimmed := bytes.TrimRight(body, " \t\r\n")
	if len(trimmed) < 2 || trimmed[0] != '{' || trimmed[len(trimmed)-1] != '}' {
		return body
	}
	traceJSON, err := json.Marshal(t.View())
	if err != nil {
		return body
	}
	out := make([]byte, 0, len(trimmed)+len(traceJSON)+10)
	out = append(out, trimmed[:len(trimmed)-1]...)
	out = append(out, `,"trace":`...)
	out = append(out, traceJSON...)
	out = append(out, '}')
	return out
}
