package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring over a fixed node set. Each node owns
// vnodes points on a 64-bit FNV-1a circle; a key belongs to the node
// owning the first point at or after the key's hash. The ring is built
// deterministically from the sorted node set, so every cluster member —
// router and workers alike — computes identical ownership from the same
// peer list, with no coordination protocol.
//
// Keys are canonical graph hashes (graph.CanonicalForm), so relabeled
// duplicates of one instance land on the same shard by construction: the
// shard that computed an instance once owns every disguise of it.
type Ring struct {
	nodes  []string
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	node int // index into nodes
}

// vnodes is the virtual-node count per node: enough points that a 3–8
// node ring balances within a few percent. Every router and worker must
// build the same ring, so it is not configurable.
const vnodes = 64

// NewRing builds a ring over the given nodes (deduplicated, sorted
// internally). An empty node set yields a ring whose Owner is "".
func NewRing(nodes []string) *Ring {
	uniq := make([]string, 0, len(nodes))
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if n != "" && !seen[n] {
			seen[n] = true
			uniq = append(uniq, n)
		}
	}
	sort.Strings(uniq)
	r := &Ring{nodes: uniq, points: make([]ringPoint, 0, len(uniq)*vnodes)}
	for i, n := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(n + "#" + strconv.Itoa(v)), node: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Hash ties (astronomically rare) break by node index so the ring
		// stays a pure function of the node set.
		return r.points[a].node < r.points[b].node
	})
	return r
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// Nodes returns a copy of the sorted node set. Returning a copy (not
// the internal slice) means a caller iterating it while a topology swap
// replaces the ring can never observe a mutation — rings are immutable
// and so is everything handed out of one.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Owner returns the node owning key, or "" on an empty ring. The empty
// key is valid: it is the deterministic fallback shard for requests that
// cannot be canonicalized (parse errors, oversize graphs), so every
// cluster member sends such a request to the same worker and the error
// response stays byte-identical to single-node serving.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.nodes[r.points[r.at(key)].node]
}

// at returns the index of key's first ring point.
func (r *Ring) at(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Replicas returns key's ordered replica set: the first min(r,
// len(nodes)) distinct nodes of the ring sequence. Index 0 is the
// primary (== Owner), the rest are the secondaries that receive
// push-on-compute cache entries and replicated session logs. Because
// the set is a prefix of the ring walk, removing a node elsewhere on
// the ring never changes it, and removing a member shifts in exactly
// the next distinct node — minimal movement, per replica slot.
func (r *Ring) Replicas(key string, n int) []string {
	seq := r.Sequence(key)
	if n < len(seq) {
		seq = seq[:n]
	}
	return seq
}

// Sequence returns every node in preference order for key: the owner
// first, then each distinct node in ring order. Callers walk it to fail
// over when the owner is down or draining.
func (r *Ring) Sequence(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	out := make([]string, 0, len(r.nodes))
	seen := make(map[int]bool, len(r.nodes))
	for i, n := r.at(key), 0; n < len(r.points) && len(out) < len(r.nodes); i, n = (i+1)%len(r.points), n+1 {
		p := r.points[i]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, r.nodes[p.node])
		}
	}
	return out
}
