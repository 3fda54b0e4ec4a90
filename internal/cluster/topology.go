package cluster

// Epoch-versioned cluster membership. The node set is no longer a
// construction-time constant: router and workers each hold a Topology —
// an atomically swappable (epoch, node set, ring) snapshot — and every
// internal RPC (peer fill, cache push, session log, handoff) carries the
// sender's epoch in X-Regcoal-Epoch. A receiver whose epoch differs
// answers a structured 409 carrying its own full view, so the stale side
// (whichever it is) reconciles immediately instead of silently landing
// traffic on the wrong owner.
//
// Updates originate at the router's admin endpoint (POST
// /internal/topology with add/remove/nodes, CAS-guarded by from_epoch)
// and are broadcast as full {epoch, nodes} views to the union of the old
// and new node sets; a worker adopts any view with a strictly higher
// epoch (adoption is idempotent and order-insensitive under the
// monotonic epoch). A worker that restarts with a stale -peers list
// self-heals on its first internal RPC via the 409 exchange.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
)

// EpochHeader carries the sender's topology epoch on internal RPCs.
const EpochHeader = "X-Regcoal-Epoch"

// TopologyView is one immutable snapshot of cluster membership: the
// epoch, the sorted node set, and the rendezvous Ring built over it. Views are never mutated after construction; a topology change
// installs a fresh view.
type TopologyView struct {
	Epoch uint64
	Nodes []string
	Ring  *Ring
}

// Topology is the mutable, epoch-versioned membership object. Readers
// take lock-free snapshots via View; writers serialize through mu so
// epochs increase monotonically and CAS semantics hold.
type Topology struct {
	mu  sync.Mutex
	cur atomic.Pointer[TopologyView]
}

// NewTopology builds a topology over the initial node set at epoch 1.
func NewTopology(nodes []string) *Topology {
	t := &Topology{}
	ring := NewRing(nodes)
	t.cur.Store(&TopologyView{Epoch: 1, Nodes: ring.Nodes(), Ring: ring})
	return t
}

// View returns the current snapshot.
func (t *Topology) View() *TopologyView { return t.cur.Load() }

// Epoch returns the current epoch.
func (t *Topology) Epoch() uint64 { return t.cur.Load().Epoch }

// CAS installs nodes as the new membership iff the current epoch equals
// fromEpoch, returning the new view (epoch fromEpoch+1). A mismatch
// returns the current view and an error — the caller refetches and
// retries or reports the conflict.
func (t *Topology) CAS(fromEpoch uint64, nodes []string) (*TopologyView, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.cur.Load()
	if cur.Epoch != fromEpoch {
		return cur, fmt.Errorf("topology: CAS from epoch %d, current is %d", fromEpoch, cur.Epoch)
	}
	ring := NewRing(nodes)
	next := &TopologyView{Epoch: cur.Epoch + 1, Nodes: ring.Nodes(), Ring: ring}
	t.cur.Store(next)
	return next, nil
}

// Adopt installs a broadcast view iff its epoch is strictly higher than
// the current one. It returns the previous and installed views and
// whether anything changed; equal or lower epochs are no-ops (idempotent
// re-delivery, stale broadcast).
func (t *Topology) Adopt(epoch uint64, nodes []string) (old, installed *TopologyView, changed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.cur.Load()
	if epoch <= cur.Epoch {
		return cur, cur, false
	}
	ring := NewRing(nodes)
	next := &TopologyView{Epoch: epoch, Nodes: ring.Nodes(), Ring: ring}
	t.cur.Store(next)
	return cur, next, true
}

// TopologyWire is the JSON shape of a full topology view: the broadcast
// body of POST /internal/topology on workers, the response of GET
// /internal/topology everywhere, and the payload of a stale-epoch 409.
type TopologyWire struct {
	Epoch uint64   `json:"epoch"`
	Nodes []string `json:"nodes"`
}

// Wire renders the view for transport.
func (v *TopologyView) Wire() TopologyWire {
	return TopologyWire{Epoch: v.Epoch, Nodes: append([]string(nil), v.Nodes...)}
}

// staleEpoch is the structured 409 body an epoch mismatch answers with:
// the error, both epochs, and the receiver's full current view so the
// stale side can reconcile from the rejection alone — the 409 IS the
// ring refetch.
type staleEpoch struct {
	Error    string       `json:"error"`
	Have     uint64       `json:"have"`
	Got      uint64       `json:"got"`
	Topology TopologyWire `json:"topology"`
}

// writeStaleEpoch answers an internal RPC whose epoch disagrees with
// view.
func writeStaleEpoch(rw http.ResponseWriter, got uint64, view *TopologyView) {
	body, err := json.Marshal(staleEpoch{
		Error:    fmt.Sprintf("stale epoch %d, current is %d", got, view.Epoch),
		Have:     view.Epoch,
		Got:      got,
		Topology: view.Wire(),
	})
	if err != nil {
		http.Error(rw, `{"error":"stale epoch"}`, http.StatusConflict)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(http.StatusConflict)
	rw.Write(body)
}

// parseEpochHeader reads X-Regcoal-Epoch. Absent or malformed headers
// return (0, false): epoch-agnostic senders (older binaries, manual
// curl) are accepted rather than locked out.
func parseEpochHeader(r *http.Request) (uint64, bool) {
	h := r.Header.Get(EpochHeader)
	if h == "" {
		return 0, false
	}
	e, err := strconv.ParseUint(h, 10, 64)
	if err != nil {
		return 0, false
	}
	return e, true
}

// PostTopologyUpdate announces a membership edit to the admin endpoint
// at base (normally the router): nodes in add join the ring, nodes in
// remove leave it. It is the client side of `serve -join` and the
// drain-initiated leave. The installed view comes back on success; a
// CAS conflict or validation error surfaces as an error carrying the
// response body.
func PostTopologyUpdate(client *http.Client, base string, add, remove []string) (TopologyWire, error) {
	if client == nil {
		client = http.DefaultClient
	}
	return postTopologyUpdate(client, base, topologyUpdate{Add: add, Remove: remove})
}

func postTopologyUpdate(client *http.Client, base string, upd topologyUpdate) (TopologyWire, error) {
	var wire TopologyWire
	payload, err := json.Marshal(upd)
	if err != nil {
		return wire, err
	}
	resp, err := client.Post(base+"/internal/topology", "application/json", bytes.NewReader(payload))
	if err != nil {
		return wire, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return wire, err
	}
	if resp.StatusCode != http.StatusOK {
		return wire, fmt.Errorf("topology update: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &wire); err != nil {
		return wire, fmt.Errorf("topology update: decoding response: %w", err)
	}
	return wire, nil
}

// topologyUpdate is the admin wire of POST /internal/topology on the
// router: either a full replacement node set or an add/remove edit of
// the current one, CAS-guarded by from_epoch (0 means "against the
// current epoch, whatever it is" — still serialized, but not protected
// against a concurrent admin racing the read-modify-write).
type topologyUpdate struct {
	FromEpoch uint64   `json:"from_epoch,omitempty"`
	Nodes     []string `json:"nodes,omitempty"`
	Add       []string `json:"add,omitempty"`
	Remove    []string `json:"remove,omitempty"`
}

// applyEdit computes the update's target node set from the current one.
func (u *topologyUpdate) applyEdit(current []string) ([]string, error) {
	if len(u.Nodes) > 0 {
		if len(u.Add) > 0 || len(u.Remove) > 0 {
			return nil, fmt.Errorf("topology update: use either nodes or add/remove, not both")
		}
		return append([]string(nil), u.Nodes...), nil
	}
	if len(u.Add) == 0 && len(u.Remove) == 0 {
		return nil, fmt.Errorf("topology update: empty update (set nodes, add, or remove)")
	}
	drop := make(map[string]bool, len(u.Remove))
	for _, n := range u.Remove {
		drop[n] = true
	}
	out := make([]string, 0, len(current)+len(u.Add))
	for _, n := range current {
		if !drop[n] {
			out = append(out, n)
		}
	}
	for _, n := range u.Add {
		if !drop[n] {
			out = append(out, n)
		}
	}
	return out, nil
}
