// Package faultinject is the deterministic fault-injection layer behind
// the cluster's chaos tests. A Plan is a seeded list of rules — drop,
// delay, error, or blackhole per peer per request-count window — and an
// Injector evaluates it reproducibly: the decision for the N-th request
// a component sends to (or receives from) a peer depends only on the
// plan's seed, the peer's name, and N, never on wall-clock time or
// scheduling. The same plan therefore produces the same fault sequence
// on every run, which is what lets the chaos differential tests assert
// byte-identity under failure instead of merely surviving it.
//
// Faults apply on two sides, and every rule belongs to exactly one:
//
//   - client: evaluated by the Transport wrapper before a request leaves
//     (drop and blackhole become transport errors, delay sleeps). This is
//     how a dead or unreachable peer is simulated — the receiving process
//     never sees the request.
//   - server: evaluated by the Middleware before a /v1/* request is
//     handled (error answers an injected 5xx, delay sleeps). This is how
//     a misbehaving-but-alive worker is simulated.
//
// Rules default their side from their mode (drop/blackhole → client,
// error → server, delay → client) so plans stay terse; Side overrides.
// Peers are addressed by stable names — topologies name workers "w0",
// "w1", ... in peer-list order (NameMap) — so one plan file works across
// in-process tests, serve, and loadgen regardless of ports.
package faultinject

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Modes a Rule can inject.
const (
	// ModeDrop fails the request with a transport error (client side).
	ModeDrop = "drop"
	// ModeBlackhole is drop by another name, conventionally used with an
	// open-ended window to take a peer down for the rest of the run.
	ModeBlackhole = "blackhole"
	// ModeDelay sleeps DelayMS before letting the request proceed.
	ModeDelay = "delay"
	// ModeError answers an injected Status (default 500) before the
	// handler runs (server side).
	ModeError = "error"
)

// Sides a Rule can apply on.
const (
	SideClient = "client"
	SideServer = "server"
)

// Rule injects one fault mode for one peer over one request-count
// window. Windows are half-open [From, To) over the per-(peer, side)
// request counter of the evaluating component, counted from 0; To == 0
// means unbounded. Prob in (0, 1) makes the fault probabilistic but
// still deterministic — the coin for request N is a hash of (seed,
// peer, side, N). Prob == 0 means always (the common case reads as
// "blackhole w1 from request 5" without stating a probability).
type Rule struct {
	Peer    string  `json:"peer"` // "w0", ..., or "*" for every peer
	Mode    string  `json:"mode"`
	Side    string  `json:"side,omitempty"` // default derived from Mode
	From    int64   `json:"from,omitempty"`
	To      int64   `json:"to,omitempty"`
	Prob    float64 `json:"prob,omitempty"`
	DelayMS int64   `json:"delay_ms,omitempty"`
	Status  int     `json:"status,omitempty"` // error mode; default 500
	// Paths restricts the rule to requests whose URL path starts with
	// one of these prefixes, and switches the rule onto its own
	// per-(rule, peer, side) request counter — its window counts only
	// matching requests. This is how chaos plans reach internal traffic
	// (handoff streams, session logs) that path-less rules
	// deliberately never touch: {"paths": ["/internal/cache"], "mode":
	// "drop", "from": 2} kills a handoff push mid-stream without
	// perturbing solve traffic or the legacy counters existing plans'
	// windows are calibrated against.
	Paths []string `json:"paths,omitempty"`
}

// side returns the rule's effective side.
func (r *Rule) side() string {
	if r.Side != "" {
		return r.Side
	}
	switch r.Mode {
	case ModeError:
		return SideServer
	default:
		return SideClient
	}
}

// Plan is a seeded fault schedule. The zero plan injects nothing.
type Plan struct {
	Seed  int64  `json:"seed"`
	Rules []Rule `json:"rules"`
}

// Validate rejects unknown modes and sides and nonsense windows.
func (p *Plan) Validate() error {
	for i := range p.Rules {
		r := &p.Rules[i]
		switch r.Mode {
		case ModeDrop, ModeBlackhole, ModeDelay, ModeError:
		default:
			return fmt.Errorf("faultinject: rule %d: unknown mode %q", i, r.Mode)
		}
		switch r.Side {
		case "", SideClient, SideServer:
		default:
			return fmt.Errorf("faultinject: rule %d: unknown side %q", i, r.Side)
		}
		if r.Peer == "" {
			return fmt.Errorf("faultinject: rule %d: missing peer", i)
		}
		if r.To != 0 && r.To <= r.From {
			return fmt.Errorf("faultinject: rule %d: empty window [%d, %d)", i, r.From, r.To)
		}
		if r.Prob < 0 || r.Prob > 1 {
			return fmt.Errorf("faultinject: rule %d: prob %v outside [0, 1]", i, r.Prob)
		}
		if r.Mode == ModeDelay && r.DelayMS <= 0 {
			return fmt.Errorf("faultinject: rule %d: delay mode needs delay_ms > 0", i)
		}
		for _, p := range r.Paths {
			if !strings.HasPrefix(p, "/") {
				return fmt.Errorf("faultinject: rule %d: path %q must start with /", i, p)
			}
		}
	}
	return nil
}

// ParsePlan decodes and validates a JSON plan.
func ParsePlan(data []byte) (*Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("faultinject: parsing plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// LoadPlan reads and parses a plan file.
func LoadPlan(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("faultinject: reading plan: %w", err)
	}
	return ParsePlan(data)
}

// Action is one injected fault decision.
type Action struct {
	Mode  string
	Delay time.Duration
	// Status is the injected response status for ModeError.
	Status int
}

// Stats counts what an Injector actually injected.
type Stats struct {
	Drops  int64 `json:"drops"`
	Delays int64 `json:"delays"`
	Errors int64 `json:"errors"`
}

// Injector evaluates a Plan for one component. Each component of a
// topology (the router's client, each worker's inbound handler and peer
// client) holds its own Injector, so request counters — and therefore
// windows — are per component and deterministic for serial traffic.
type Injector struct {
	plan *Plan

	mu     sync.Mutex
	counts map[string]int64 // per (side + "|" + peer)

	drops  atomic.Int64
	delays atomic.Int64
	errors atomic.Int64
}

// New builds an Injector over plan (nil plan injects nothing).
func New(plan *Plan) *Injector {
	return &Injector{plan: plan, counts: make(map[string]int64)}
}

// Stats snapshots the injected-fault counters.
func (in *Injector) Stats() Stats {
	return Stats{Drops: in.drops.Load(), Delays: in.delays.Load(), Errors: in.errors.Load()}
}

// Decide advances peer's request counter for side and returns the first
// matching path-less rule's action, if any. Path-scoped rules are
// evaluated separately (DecidePath) on their own counters, so adding
// one to a plan never shifts the windows of the rules that were there.
func (in *Injector) Decide(peer, side string) (Action, bool) {
	if in.plan == nil || len(in.plan.Rules) == 0 {
		return Action{}, false
	}
	in.mu.Lock()
	key := side + "|" + peer
	n := in.counts[key]
	in.counts[key] = n + 1
	in.mu.Unlock()
	for i := range in.plan.Rules {
		r := &in.plan.Rules[i]
		if len(r.Paths) > 0 || r.side() != side {
			continue
		}
		if r.Peer != "*" && r.Peer != peer {
			continue
		}
		if n < r.From || (r.To != 0 && n >= r.To) {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && coin(in.plan.Seed, peer, side, n) >= r.Prob {
			continue
		}
		return in.action(r), true
	}
	return Action{}, false
}

// DecidePath evaluates path-scoped rules for one request. Every
// matching rule's private counter advances (windows count matching
// requests only); the first whose window and probability hit supplies
// the action.
func (in *Injector) DecidePath(peer, side, path string) (Action, bool) {
	if in.plan == nil || len(in.plan.Rules) == 0 {
		return Action{}, false
	}
	var hit *Rule
	for i := range in.plan.Rules {
		r := &in.plan.Rules[i]
		if len(r.Paths) == 0 || r.side() != side {
			continue
		}
		if r.Peer != "*" && r.Peer != peer {
			continue
		}
		if !matchPath(r.Paths, path) {
			continue
		}
		in.mu.Lock()
		key := fmt.Sprintf("%s|%s|#%d", side, peer, i)
		n := in.counts[key]
		in.counts[key] = n + 1
		in.mu.Unlock()
		if hit != nil {
			continue // counters still advance past the winning rule
		}
		if n < r.From || (r.To != 0 && n >= r.To) {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && coin(in.plan.Seed, peer, side, n) >= r.Prob {
			continue
		}
		hit = r
	}
	if hit == nil {
		return Action{}, false
	}
	return in.action(hit), true
}

func matchPath(prefixes []string, path string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(path, p) {
			return true
		}
	}
	return false
}

func (in *Injector) action(r *Rule) Action {
	act := Action{Mode: r.Mode, Delay: time.Duration(r.DelayMS) * time.Millisecond, Status: r.Status}
	if act.Status == 0 {
		act.Status = http.StatusInternalServerError
	}
	return act
}

// coin is the deterministic probability source: splitmix64 over the
// seed, the peer/side identity, and the request index, normalized to
// [0, 1).
func coin(seed int64, peer, side string, n int64) float64 {
	h := fnv.New64a()
	h.Write([]byte(side))
	h.Write([]byte{0})
	h.Write([]byte(peer))
	z := uint64(seed) ^ h.Sum64() ^ uint64(n)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// InjectedError is the transport error a dropped or blackholed request
// fails with.
type InjectedError struct {
	Peer string
	Mode string
}

func (e *InjectedError) Error() string {
	return "faultinject: " + e.Mode + " to " + e.Peer
}

// NameMap maps the i-th base URL of a peer list to the stable name
// "w<i>", the naming every fault plan addresses. Requests to a URL
// outside the list fall back to their host:port.
func NameMap(urls []string) func(*http.Request) string {
	m := make(map[string]string, len(urls))
	for i, u := range urls {
		m[strings.TrimPrefix(strings.TrimPrefix(u, "http://"), "https://")] = fmt.Sprintf("w%d", i)
	}
	return func(req *http.Request) string {
		if name, ok := m[req.URL.Host]; ok {
			return name
		}
		return req.URL.Host
	}
}

// transport is the client-side hook.
type transport struct {
	in     *Injector
	base   http.RoundTripper
	peerOf func(*http.Request) string
}

// Transport wraps base (nil means http.DefaultTransport) so every
// outgoing request is first judged against the plan's client-side rules
// for the peer peerOf names.
func (in *Injector) Transport(base http.RoundTripper, peerOf func(*http.Request) string) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &transport{in: in, base: base, peerOf: peerOf}
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	peer := t.peerOf(req)
	act, ok := t.in.Decide(peer, SideClient)
	if !ok {
		act, ok = t.in.DecidePath(peer, SideClient, req.URL.Path)
	}
	if ok {
		switch act.Mode {
		case ModeDrop, ModeBlackhole:
			t.in.drops.Add(1)
			if req.Body != nil {
				req.Body.Close()
			}
			return nil, &InjectedError{Peer: peer, Mode: act.Mode}
		case ModeDelay:
			t.in.delays.Add(1)
			time.Sleep(act.Delay)
		}
	}
	return t.base.RoundTrip(req)
}

// Middleware wraps next so inbound requests are first judged against
// the plan's server-side rules for this component's own name. Path-less
// rules fault only client-facing /v1/* solve traffic — internal
// replication, health, and metrics paths stay clean so injected faults
// perturb where work happens, not whether the cluster can observe
// itself. Path-scoped rules reach whatever their prefixes name,
// including /internal/* — that is how a plan kills a handoff stream or
// session log ship mid-flight.
func (in *Injector) Middleware(self string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		act, ok := Action{}, false
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			act, ok = in.Decide(self, SideServer)
		}
		if !ok {
			act, ok = in.DecidePath(self, SideServer, r.URL.Path)
		}
		if ok {
			switch act.Mode {
			case ModeError, ModeDrop, ModeBlackhole:
				in.errors.Add(1)
				rw.Header().Set("Content-Type", "application/json")
				rw.WriteHeader(act.Status)
				fmt.Fprintf(rw, `{"error":"injected fault (%s)"}`, act.Mode)
				return
			case ModeDelay:
				in.delays.Add(1)
				time.Sleep(act.Delay)
			}
		}
		next.ServeHTTP(rw, r)
	})
}
