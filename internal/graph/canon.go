package graph

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strconv"
	"sync"
)

// Canonical graph hashing for result caching: two requests carrying the
// same instance — possibly with renamed or renumbered vertices — should be
// recognized as one problem, solved once, and answered from memory.
//
// CanonicalForm computes a label ordering by Weisfeiler–Leman color
// refinement: vertices start with a signature built from label-independent
// invariants (precolor, interference degree, incident affinity weights)
// and are repeatedly re-signed with the multiset of their neighbors'
// colors until the partition into color classes stabilizes. Vertices are
// then ordered by their final class and the instance is serialized in
// that order; the hash is the SHA-256 of the serialization.
//
// All signatures of a round live in one byte arena, and classes are
// numbered by the byte order of their signatures, which is
// label-independent. Decimal signatures rank as strings, not numbers:
// class 10's "c10|" sorts before class 2's "c2|". The round that finds the
// partition stable still re-ranks it, so the final numbering is that
// round's byte order. Each vertex's neighbor classes come out ascending
// from one pass over the vertices in class order (and its neighbors'
// canonical positions, for the edge lines, from one pass in canonical
// order), so neighbor lists need no per-vertex sort. The serialization is
// written into one buffer and hashed with one sha256.Sum256. All scratch
// comes from a sync.Pool; a warm call allocates only the returned
// Canonical, Perm and Hash.
//
// The signature format — "p<precolor> d<degree>" plus " w<weight>" per
// incident affinity in ascending weight order, then each round
// "c<class>|" plus " <class>" per neighbor in ascending class order, "|",
// and " <weight>:<class>" per incident affinity in byte order — and the
// serialization ("regcoal-canon-v1", n, k, precolors, sorted edges, sorted
// affinities) together are the regcoal-canon-v1 compatibility contract.
// Hashes are cache keys and ring positions, and a delta session's
// base_hash is one: a router and a worker of different builds must
// compute the same hash for the same instance. Changing either is a
// versioned regcoal-canon-v2 change that moves ring placement and
// invalidates every stored base_hash.
//
// Soundness does not depend on refinement quality: equal hashes imply
// equal canonical serializations, which fully determine the relabeled
// instance (register count, edges, precoloring, affinity multiset).
// Therefore two instances with the same hash are isomorphic via their
// permutations, and any solution expressed in canonical positions maps
// back to either instance exactly. Refinement quality only affects how
// often two relabelings of the same abstract graph reach the same hash:
// when refinement separates all vertices (typical for irregular
// interference graphs) the hash is fully relabeling-invariant; highly
// symmetric graphs may hash differently under relabeling, costing a cache
// miss but never a wrong answer. Vertex names never enter the hash.
//
// VerifyCanonical checks a form computed elsewhere instead of computing
// one: the cluster router forwards the form it routed a request by, and
// the worker verifies it (perm is a permutation, and the serialization
// under perm hashes to hash), skipping the refinement rounds.
//
//   - A form that verifies is sound whoever sent it: by the argument
//     above, equal hashes imply equal serializations, so the hash names
//     exactly the instance serialized under perm, and answers map back
//     through perm exactly.
//   - Verification does not prove perm is the one refinement computes. A
//     perm that differs by an automorphism of the instance serializes to
//     the same bytes and verifies too: of the 96 graphs of the serving
//     benchmark's hot mix, 34 still verify with the vertices at canonical
//     positions 0 and 1 swapped.
//   - So an answer rendered through a forwarded form is byte-identical to
//     one rendered through a recomputed form only because the router and
//     the worker run the same refinement, which ring placement already
//     requires (the regcoal-canon-v2 rule above).
//   - A worker accepts a forwarded form from any caller, as it accepts
//     PUT /internal/cache entries. A forged form sent straight to a
//     worker can at worst select a different, equally valid rendering of
//     the same answer; it can never yield a wrong answer.

// Canonical is a canonical relabeling of an instance.
type Canonical struct {
	// Hash is the hex SHA-256 of the canonical serialization.
	Hash string
	// Perm maps original vertex ids to canonical positions.
	Perm []V
}

// Inverse returns the canonical-position-to-original-vertex mapping.
func (c *Canonical) Inverse() []V {
	inv := make([]V, len(c.Perm))
	for v, p := range c.Perm {
		inv[p] = V(v)
	}
	return inv
}

// canonScratch is the working set of one CanonicalForm call, recycled
// through canonPool.
type canonScratch struct {
	// Affinity adjacency in CSR form: vertex v's affinity half-edges are
	// affW/affNb[affOff[v]:affOff[v+1]]. A self-affinity is one half-edge.
	affOff []int
	affW   []int64
	affNb  []V

	sig    []byte // this round's signatures, back to back
	sigOff []int  // vertex v's signature is sig[sigOff[v]:sigOff[v+1]]
	colors []int  // class of each vertex
	order  []V    // vertices sorted by (signature, index)

	// Neighbor keys (classes, then canonical positions) in CSR form:
	// vertex v's are nbKey[nbOff[v]:nbOff[v+1]], ascending.
	nbOff []int
	nbKey []int
	cur   []int // per-vertex fill cursors for both CSR arrays

	ws    []int64  // one vertex's affinity weights
	terms []byte   // one vertex's "<weight>:<class>" affinity terms
	spans [][2]int // their bounds in terms

	affs []Affinity
	buf  []byte // the serialization
}

var canonPool = sync.Pool{New: func() any { return new(canonScratch) }}

// CanonicalForm computes the canonical relabeling and hash of f. It does
// not modify the graph and is safe for concurrent use. Cost is
// O(rounds · (V log V + E + A)) with at most V refinement rounds
// (irregular graphs stabilize in a handful).
func CanonicalForm(f *File) *Canonical {
	s := canonPool.Get().(*canonScratch)
	defer canonPool.Put(s)
	g := f.G
	n := g.N()
	s.buildAffinities(g)
	s.sizeNeighborKeys(g)
	s.colors = ReuseSlice(s.colors, n)
	s.order = ReuseSlice(s.order, n)
	s.sigOff = ReuseSlice(s.sigOff, n+1)

	// Initial signatures from label-independent invariants.
	s.sig = s.sig[:0]
	for v := 0; v < n; v++ {
		s.sigOff[v] = len(s.sig)
		s.sig = append(s.sig, 'p')
		s.sig = strconv.AppendInt(s.sig, int64(g.precolored[v]), 10)
		s.sig = append(s.sig, " d"...)
		s.sig = strconv.AppendInt(s.sig, int64(len(g.nbr[v])), 10)
		s.ws = append(s.ws[:0], s.affW[s.affOff[v]:s.affOff[v+1]]...)
		slices.Sort(s.ws)
		for _, w := range s.ws {
			s.sig = append(s.sig, " w"...)
			s.sig = strconv.AppendInt(s.sig, w, 10)
		}
	}
	s.sigOff[n] = len(s.sig)
	distinct := s.rank()

	for round := 0; round < n; round++ {
		s.fillNeighborKeys(g, s.colors)
		s.sig = s.sig[:0]
		for v := 0; v < n; v++ {
			s.sigOff[v] = len(s.sig)
			s.appendRoundSig(V(v))
		}
		s.sigOff[n] = len(s.sig)
		d := s.rank()
		if d == distinct {
			break // stable partition
		}
		distinct = d
	}

	// s.order is now sorted by final class, ties (refinement could not
	// separate) broken by original index — deterministic, and sound per
	// the package comment, at worst costing relabeling-invariance on
	// symmetric graphs. It is the inverse of the canonical permutation.
	perm := make([]V, n)
	for pos, v := range s.order {
		perm[v] = V(pos)
		s.colors[v] = pos // hash's key for fillNeighborKeys
	}
	hx := s.hash(f, perm)
	return &Canonical{Hash: string(hx[:]), Perm: perm}
}

// VerifyCanonical returns the canonical form (hash, perm) of f when it
// is one, and nil otherwise: perm must be a permutation of f's vertices,
// and hash the hex SHA-256 of f's regcoal-canon-v1 serialization under
// perm. It runs no refinement, only the serialization and one SHA-256,
// and the Canonical it returns keeps hash and perm. See the package
// comment for why a form that verifies is sound whoever computed it.
func VerifyCanonical(f *File, hash string, perm []V) *Canonical {
	n := f.G.N()
	if len(perm) != n {
		return nil
	}
	s := canonPool.Get().(*canonScratch)
	defer canonPool.Put(s)
	s.order = ReuseSlice(s.order, n)
	s.colors = ReuseSlice(s.colors, n)
	for pos := range s.order {
		s.order[pos] = -1
	}
	for v, pos := range perm {
		if pos < 0 || int(pos) >= n || s.order[pos] >= 0 {
			return nil // out of range, or a position taken twice
		}
		s.order[pos] = V(v)
		s.colors[v] = int(pos)
	}
	s.sizeNeighborKeys(f.G)
	if hx := s.hash(f, perm); string(hx[:]) != hash {
		return nil
	}
	return &Canonical{Hash: hash, Perm: perm}
}

// CanonicalHash is CanonicalForm reduced to the hash.
func CanonicalHash(f *File) string {
	return CanonicalForm(f).Hash
}

// buildAffinities fills the CSR affinity adjacency of g.
func (s *canonScratch) buildAffinities(g *Graph) {
	n := g.N()
	s.affOff = ReuseSlice(s.affOff, n+1)
	for _, a := range g.affinities {
		s.affOff[a.X+1]++
		if a.X != a.Y {
			s.affOff[a.Y+1]++
		}
	}
	for v := 0; v < n; v++ {
		s.affOff[v+1] += s.affOff[v]
	}
	s.affW = ReuseSlice(s.affW, s.affOff[n])
	s.affNb = ReuseSlice(s.affNb, s.affOff[n])
	s.cur = append(s.cur[:0], s.affOff[:n]...)
	put := func(v, nb V, w int64) {
		s.affW[s.cur[v]], s.affNb[s.cur[v]] = w, nb
		s.cur[v]++
	}
	for _, a := range g.affinities {
		put(a.X, a.Y, a.Weight)
		if a.X != a.Y {
			put(a.Y, a.X, a.Weight)
		}
	}
}

// sizeNeighborKeys lays out the neighbor-key CSR arrays for g.
func (s *canonScratch) sizeNeighborKeys(g *Graph) {
	n := g.N()
	s.nbOff = ReuseSlice(s.nbOff, n+1)
	for v := 0; v < n; v++ {
		s.nbOff[v+1] = s.nbOff[v] + len(g.nbr[v])
	}
	s.nbKey = ReuseSlice(s.nbKey, s.nbOff[n])
}

// fillNeighborKeys lists each vertex's neighbors' keys in ascending
// order into nbKey. key must ascend along s.order: walking the vertices
// in that order and appending each one's key to its neighbors' lists
// leaves every list sorted, with no per-vertex sort.
func (s *canonScratch) fillNeighborKeys(g *Graph, key []int) {
	s.cur = append(s.cur[:0], s.nbOff[:g.N()]...)
	for _, w := range s.order {
		k := key[w]
		for _, u := range g.nbr[w] {
			s.nbKey[s.cur[u]] = k
			s.cur[u]++
		}
	}
}

// appendRoundSig appends v's refinement signature under the current
// classes: its own class, its neighbors' classes in ascending numeric
// order (from fillNeighborKeys), and its "<weight>:<class>" affinity
// terms in byte order.
func (s *canonScratch) appendRoundSig(v V) {
	s.sig = append(s.sig, 'c')
	s.sig = strconv.AppendInt(s.sig, int64(s.colors[v]), 10)
	s.sig = append(s.sig, '|')
	for _, c := range s.nbKey[s.nbOff[v]:s.nbOff[v+1]] {
		s.sig = append(s.sig, ' ')
		s.sig = strconv.AppendInt(s.sig, int64(c), 10)
	}
	s.sig = append(s.sig, '|')

	s.terms, s.spans = s.terms[:0], s.spans[:0]
	for i := s.affOff[v]; i < s.affOff[v+1]; i++ {
		lo := len(s.terms)
		s.terms = strconv.AppendInt(s.terms, s.affW[i], 10)
		s.terms = append(s.terms, ':')
		s.terms = strconv.AppendInt(s.terms, int64(s.colors[s.affNb[i]]), 10)
		s.spans = append(s.spans, [2]int{lo, len(s.terms)})
	}
	slices.SortFunc(s.spans, func(a, b [2]int) int {
		return bytes.Compare(s.terms[a[0]:a[1]], s.terms[b[0]:b[1]])
	})
	for _, sp := range s.spans {
		s.sig = append(s.sig, ' ')
		s.sig = append(s.sig, s.terms[sp[0]:sp[1]]...)
	}
}

// sigOf returns v's signature in the arena.
func (s *canonScratch) sigOf(v V) []byte { return s.sig[s.sigOff[v]:s.sigOff[v+1]] }

// rank sorts s.order by (signature, index), numbers the distinct
// signatures densely in byte order into s.colors, and returns how many
// there are.
func (s *canonScratch) rank() int {
	for i := range s.order {
		s.order[i] = V(i)
	}
	slices.SortFunc(s.order, func(a, b V) int {
		if c := bytes.Compare(s.sigOf(a), s.sigOf(b)); c != 0 {
			return c
		}
		return int(a - b)
	})
	d := 0
	for i, v := range s.order {
		if i == 0 || !bytes.Equal(s.sigOf(s.order[i-1]), s.sigOf(v)) {
			d++
		}
		s.colors[v] = d - 1
	}
	return d
}

// hash serializes the instance under perm, with s.order its inverse and
// s.colors each vertex's position, and returns the hex SHA-256. The
// serialization is injective on (k, n, edge set, precoloring, affinity
// multiset) — names are deliberately excluded.
func (s *canonScratch) hash(f *File, perm []V) [2 * sha256.Size]byte {
	g := f.G
	b := append(s.buf[:0], "regcoal-canon-v1\nn "...)
	b = strconv.AppendInt(b, int64(g.N()), 10)
	b = append(b, "\nk "...)
	b = strconv.AppendInt(b, int64(f.K), 10)
	b = append(b, '\n')
	for pos, v := range s.order {
		if c := g.precolored[v]; c != NoColor {
			b = appendLine(b, 'p', int64(pos), int64(c))
		}
	}

	// Edges (x, y), x < y, in lexicographic order: each vertex's
	// neighbor positions come out ascending.
	s.fillNeighborKeys(g, s.colors)
	for x, v := range s.order {
		for _, y := range s.nbKey[s.nbOff[v]:s.nbOff[v+1]] {
			if y > x {
				b = appendLine(b, 'e', int64(x), int64(y))
			}
		}
	}

	s.affs = s.affs[:0]
	for _, a := range g.affinities {
		s.affs = append(s.affs, Affinity{X: perm[a.X], Y: perm[a.Y], Weight: a.Weight}.Canon())
	}
	SortAffinities(s.affs)
	for _, a := range s.affs {
		b = appendLine(b, 'a', int64(a.X), int64(a.Y), a.Weight)
	}
	s.buf = b

	sum := sha256.Sum256(b)
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], sum[:])
	return hx
}

// appendLine appends the serialization line "<tag> <x>…\n".
func appendLine(b []byte, tag byte, xs ...int64) []byte {
	b = append(b, tag)
	for _, x := range xs {
		b = append(b, ' ')
		b = strconv.AppendInt(b, x, 10)
	}
	return append(b, '\n')
}
