package cluster

import (
	"hash/fnv"
	"slices"
)

// Ring places keys on a fixed node set by rendezvous (highest random
// weight) hashing. Each node has a 64-bit id, the FNV-1a hash of its
// URL; a key scores on a node by the splitmix64 finalizer of the node's
// id XOR the key's FNV-1a hash, and the node scoring highest owns it.
// Scores are independent per node, so every node owns an even share of
// the key space on any node set, and the placement is a pure function of
// the node set: every cluster member — router and workers alike —
// computes identical ownership from the same peer list, with no
// coordination protocol.
//
// Keys are canonical graph hashes (graph.CanonicalForm), so relabeled
// duplicates of one instance land on the same shard by construction: the
// shard that computed an instance once owns every disguise of it.
type Ring struct {
	nodes []string // sorted
	ids   []uint64 // ids[i] = hash64(nodes[i])
}

// NewRing builds a ring over the given nodes (deduplicated, sorted
// internally). An empty node set yields a ring whose Owner is "".
func NewRing(nodes []string) *Ring {
	uniq := slices.DeleteFunc(slices.Clone(nodes), func(n string) bool { return n == "" })
	slices.Sort(uniq)
	uniq = slices.Compact(uniq)
	r := &Ring{nodes: uniq, ids: make([]uint64, len(uniq))}
	for i, n := range uniq {
		r.ids[i] = hash64(n)
	}
	return r
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// score is the splitmix64 finalizer of x: a bijection whose every output
// bit depends on every input bit, so nodes whose ids differ in a few
// bits still score independently.
func score(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
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
	h := hash64(key)
	owner, best := "", uint64(0)
	for i, n := range r.nodes {
		if s := score(r.ids[i] ^ h); owner == "" || s > best {
			owner, best = n, s
		}
	}
	return owner
}

// Replicas returns key's ordered replica set: the first min(r,
// len(nodes)) nodes of its sequence. Index 0 is the primary (== Owner),
// the rest are the secondaries that receive push-on-compute cache
// entries and replicated session logs. Because a node's score does not
// depend on the other nodes, removing a node never reorders the rest:
// a set that did not contain it is unchanged, and one that did shifts in
// exactly the next node — minimal movement, per replica slot.
func (r *Ring) Replicas(key string, n int) []string {
	seq := r.Sequence(key)
	if n < len(seq) {
		seq = seq[:n]
	}
	return seq
}

// Sequence returns every node in preference order for key: by
// descending score, ties by node order, so the owner comes first.
// Callers walk it to fail over when the owner is down or draining.
func (r *Ring) Sequence(key string) []string {
	if len(r.nodes) == 0 {
		return nil
	}
	h := hash64(key)
	out := make([]string, len(r.nodes))
	scores := make([]uint64, len(r.nodes))
	for i, n := range r.nodes {
		// Insertion sort: node sets are small, and inserting after every
		// equal score keeps ties in node order.
		s, j := score(r.ids[i]^h), i
		for ; j > 0 && scores[j-1] < s; j-- {
			out[j], scores[j] = out[j-1], scores[j-1]
		}
		out[j], scores[j] = n, s
	}
	return out
}
