package obs

import (
	"io"
	"strings"
	"time"
)

// Endpoint identifies which request family a sample belongs to.
type Endpoint int

const (
	EndpointCoalesce Endpoint = iota
	EndpointAllocate
	EndpointSpill
	EndpointBatch
	// EndpointDelta is the session layer's POST /v1/coalesce/delta
	// (create, apply-delta, and close all record here).
	EndpointDelta
	NumEndpoints
)

var endpointNames = [NumEndpoints]string{"coalesce", "allocate", "spill", "batch", "delta"}

func (e Endpoint) String() string {
	if e < 0 || e >= NumEndpoints {
		return "unknown"
	}
	return endpointNames[e]
}

// Phase identifies one stage of the request path. The solve endpoints
// pass through them in order; PhasePeer exists only on cluster workers
// (the tiered-cache lookup against the owning shard).
type Phase int

const (
	// PhaseDecode is JSON decode plus graph build and validation.
	PhaseDecode Phase = iota
	// PhaseCanon is Weisfeiler-Leman canonicalization and cache-key
	// construction.
	PhaseCanon
	// PhasePeer is the cluster worker's peer cache fill (L2 lookup).
	PhasePeer
	// PhaseCache is the local result-cache lookup.
	PhaseCache
	// PhaseRace is the portfolio race, queue wait included.
	PhaseRace
	// PhaseEncode is response rendering and JSON encode.
	PhaseEncode
	NumPhases
)

var phaseNames = [NumPhases]string{"decode", "canon", "peer", "cache", "race", "encode"}

func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// ParsePhase resolves a phase name back to its enum (loadgen decodes the
// X-Regcoal-Phases header with it). Returns NumPhases for unknown names.
func ParsePhase(name string) Phase {
	for i, n := range phaseNames {
		if n == name {
			return Phase(i)
		}
	}
	return NumPhases
}

// Set is a server's full latency-histogram family: one end-to-end
// histogram per endpoint plus one per (endpoint, phase). Everything is
// preallocated; recording is atomic adds only.
type Set struct {
	request [NumEndpoints]Histogram
	phase   [NumEndpoints][NumPhases]Histogram
}

// NewSet builds an empty Set.
func NewSet() *Set { return &Set{} }

// ObserveRequest records one end-to-end request latency.
func (s *Set) ObserveRequest(e Endpoint, d time.Duration) {
	if e >= 0 && e < NumEndpoints {
		s.request[e].Observe(d)
	}
}

// ObservePhase records one phase latency.
func (s *Set) ObservePhase(e Endpoint, p Phase, d time.Duration) {
	if e >= 0 && e < NumEndpoints && p >= 0 && p < NumPhases {
		s.phase[e][p].Observe(d)
	}
}

// WritePrometheus renders the set as two histogram families:
// regcoal_request_duration_seconds{endpoint=...} and
// regcoal_phase_duration_seconds{endpoint=...,phase=...}. Series with
// zero samples are skipped (an endpoint never hit emits nothing), and a
// family whose every series is empty is omitted entirely — HELP/TYPE
// included — so an idle server's scrape stays strict-lint clean (the
// linter rejects a header with no samples) and scrape size stays
// proportional to live traffic shape.
func (s *Set) WritePrometheus(w io.Writer) {
	headed := false
	for e := Endpoint(0); e < NumEndpoints; e++ {
		if s.request[e].Count() == 0 {
			continue
		}
		if !headed {
			writeHeader(w, "regcoal_request_duration_seconds", "End-to-end request latency per endpoint.", "histogram")
			headed = true
		}
		s.request[e].WritePrometheus(w, "regcoal_request_duration_seconds", `endpoint="`+e.String()+`"`)
	}
	headed = false
	for e := Endpoint(0); e < NumEndpoints; e++ {
		for p := Phase(0); p < NumPhases; p++ {
			if s.phase[e][p].Count() == 0 {
				continue
			}
			if !headed {
				writeHeader(w, "regcoal_phase_duration_seconds", "Per-phase request latency (decode, canon, peer, cache, race, encode).", "histogram")
				headed = true
			}
			labels := `endpoint="` + e.String() + `",phase="` + p.String() + `"`
			s.phase[e][p].WritePrometheus(w, "regcoal_phase_duration_seconds", labels)
		}
	}
}

// EndpointSummary is one endpoint's /stats latency section.
type EndpointSummary struct {
	Total  QuantileSummary            `json:"total"`
	Phases map[string]QuantileSummary `json:"phases,omitempty"`
}

// Snapshot summarizes every endpoint with recorded samples, keyed by
// endpoint name — the /stats "latency" section.
func (s *Set) Snapshot() map[string]EndpointSummary {
	out := make(map[string]EndpointSummary)
	for e := Endpoint(0); e < NumEndpoints; e++ {
		if s.request[e].Count() == 0 {
			continue
		}
		es := EndpointSummary{Total: s.request[e].Summary()}
		for p := Phase(0); p < NumPhases; p++ {
			if s.phase[e][p].Count() == 0 {
				continue
			}
			if es.Phases == nil {
				es.Phases = make(map[string]QuantileSummary, int(NumPhases))
			}
			es.Phases[p.String()] = s.phase[e][p].Summary()
		}
		out[e.String()] = es
	}
	return out
}

// PhasesHeader renders a trace's phase durations as the compact
// X-Regcoal-Phases header value: "decode=1234;canon=56;..." with
// nanosecond integer values, phases in path order, zero-duration
// unvisited phases omitted. Loadgen parses it back with ParsePhases.
func BuildPhasesHeader(tr *Trace) string {
	if tr == nil || tr.NPhases == 0 {
		return ""
	}
	var b strings.Builder
	for i := 0; i < tr.NPhases; i++ {
		sp := &tr.Phases[i]
		if b.Len() > 0 {
			b.WriteByte(';')
		}
		b.WriteString(sp.Phase.String())
		b.WriteByte('=')
		writeInt(&b, sp.EndNS-sp.StartNS)
	}
	return b.String()
}

// ParsePhases decodes a PhasesHeader value into nanosecond durations per
// phase name. Malformed segments are skipped.
func ParsePhases(header string) map[string]int64 {
	if header == "" {
		return nil
	}
	out := make(map[string]int64, int(NumPhases))
	for _, seg := range strings.Split(header, ";") {
		name, val, ok := strings.Cut(seg, "=")
		if !ok {
			continue
		}
		var ns int64
		for _, c := range val {
			if c < '0' || c > '9' {
				ns = -1
				break
			}
			ns = ns*10 + int64(c-'0')
		}
		if ns < 0 || ParsePhase(name) == NumPhases {
			continue
		}
		out[name] = ns
	}
	return out
}

// writeInt appends a non-negative int64 without fmt (header building is
// per-response; keeping it cheap keeps the handler overhead flat).
func writeInt(b *strings.Builder, v int64) {
	if v < 0 {
		v = 0
	}
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	b.Write(buf[i:])
}
