package graph

import "math/bits"

// Bits is a dense bitset over vertex ids, the word-parallel currency of
// the hybrid graph representation: solver state that used to live in
// per-run map[V]bool copies (alive sets, witness cores, liveness masks,
// IRC worklists) is held as one machine word per 64 vertices, so
// membership is one AND and set-vs-set operations (intersection size,
// masked degree) run a cache line at a time.
//
// A Bits value is just a []uint64; the zero-length value is an empty
// set over zero vertices. Bits does not carry its vertex count — callers
// size it with NewBits(n) and must not Set/Get past that n.
type Bits []uint64

// wordsFor is the number of 64-bit words covering n bits.
func wordsFor(n int) int { return (n + 63) >> 6 }

// NewBits returns an empty bitset sized for vertex ids 0..n-1.
func NewBits(n int) Bits { return make(Bits, wordsFor(n)) }

// Get reports whether v is in the set.
func (b Bits) Get(v V) bool { return b[v>>6]&(1<<(uint(v)&63)) != 0 }

// Set adds v to the set.
func (b Bits) Set(v V) { b[v>>6] |= 1 << (uint(v) & 63) }

// Clear removes v from the set.
func (b Bits) Clear(v V) { b[v>>6] &^= 1 << (uint(v) & 63) }

// Count returns the number of set bits.
func (b Bits) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether no bit is set.
func (b Bits) Empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// Reset clears every bit.
func (b Bits) Reset() {
	for i := range b {
		b[i] = 0
	}
}

// Fill sets bits 0..n-1 (and clears any words past them).
func (b Bits) Fill(n int) {
	full := n >> 6
	for i := 0; i < full; i++ {
		b[i] = ^uint64(0)
	}
	for i := full; i < len(b); i++ {
		b[i] = 0
	}
	if rem := uint(n) & 63; rem != 0 {
		b[full] = (1 << rem) - 1
	}
}

// ForEach calls fn for every set bit, in increasing order.
func (b Bits) ForEach(fn func(v V)) {
	for i, w := range b {
		base := V(i << 6)
		for w != 0 {
			fn(base + V(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// First returns the smallest set bit, or -1 when the set is empty. This
// is the word-parallel "pop the smallest id" that the deterministic
// worklist disciplines (IRC, elimination) are built on.
func (b Bits) First() V {
	for i, w := range b {
		if w != 0 {
			return V(i<<6 + bits.TrailingZeros64(w))
		}
	}
	return -1
}

// AndCount returns |a ∩ b| without materializing the intersection. The
// shorter operand bounds the scan, so a row of a larger graph can be
// intersected with a mask sized for fewer vertices.
func AndCount(a, b Bits) int {
	if len(b) < len(a) {
		a, b = b, a
	}
	n := 0
	for i, w := range a {
		n += bits.OnesCount64(w & b[i])
	}
	return n
}

// AndCount3 returns |a ∩ b ∩ c|, the three-way variant used by witness
// occupancy counting (neighbors ∩ alive ∩ witness).
func AndCount3(a, b, c Bits) int {
	m := len(a)
	if len(b) < m {
		m = len(b)
	}
	if len(c) < m {
		m = len(c)
	}
	n := 0
	for i := 0; i < m; i++ {
		n += bits.OnesCount64(a[i] & b[i] & c[i])
	}
	return n
}
