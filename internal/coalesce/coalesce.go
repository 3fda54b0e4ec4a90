// Package coalesce implements the four register-coalescing optimizations
// whose complexity the paper classifies, as runnable algorithms:
//
//   - Aggressive coalescing (§3): merge move-related vertices regardless of
//     colorability. NP-complete (Thm 2); here a weight-greedy heuristic plus
//     an exact solver in package exact.
//   - Conservative coalescing (§4): merge only while the graph provably
//     stays greedy-k-colorable, using Briggs' rule, George's rule, the
//     extended George rule, or the brute-force merge-and-check test the
//     paper recommends. NP-complete to optimize (Thm 3).
//   - Incremental conservative coalescing (§4): decide one affinity.
//     NP-complete on arbitrary k-colorable graphs (Thm 4), polynomial on
//     chordal graphs (Thm 5) — see ChordalIncremental.
//   - Optimistic coalescing (§5): coalesce aggressively, then de-coalesce
//     as few moves as possible until the graph is greedy-k-colorable again
//     (Park–Moon). NP-complete to optimize (Thm 6); here the witness-guided
//     heuristic with a conservative re-coalescing pass.
package coalesce

import (
	"cmp"
	"sort"

	"regcoal/internal/graph"
	"regcoal/internal/greedy"
)

// Result reports the outcome of a coalescing strategy on a graph.
type Result struct {
	// P is the final coalescing (partition of the vertices).
	P *graph.Partition
	// Coalesced and Remaining split the graph's affinities.
	Coalesced, Remaining []graph.Affinity
	// CoalescedWeight and RemainingWeight are the corresponding weight sums.
	CoalescedWeight, RemainingWeight int64
	// Colorable reports whether the coalesced graph is greedy-k-colorable
	// for the k the strategy ran with (always true for sound conservative
	// strategies on greedy-k-colorable inputs; possibly false for
	// aggressive).
	Colorable bool
	// Rounds counts driver iterations until fixpoint, for strategies that
	// iterate.
	Rounds int
}

// Compare is the portfolio ordering of two answers on one instance:
// colorable beats not, then more coalesced weight, then fewer remaining
// moves. It is positive when a is better, negative when b is, 0 on a tie.
func Compare(a, b *Result) int {
	if a.Colorable != b.Colorable {
		if a.Colorable {
			return 1
		}
		return -1
	}
	if c := cmp.Compare(a.CoalescedWeight, b.CoalescedWeight); c != 0 {
		return c
	}
	return cmp.Compare(len(b.Remaining), len(a.Remaining))
}

// summarize builds a Result for partition p on g with colorability checked
// against k (k <= 0 skips the check and reports false).
func summarize(g *graph.Graph, p *graph.Partition, k, rounds int) *Result {
	co, rem := p.CoalescedAffinities(g)
	res := &Result{P: p, Coalesced: co, Remaining: rem, Rounds: rounds}
	for _, a := range co {
		res.CoalescedWeight += a.Weight
	}
	for _, a := range rem {
		res.RemainingWeight += a.Weight
	}
	if k > 0 {
		if q, _, err := graph.Quotient(g, p); err == nil {
			res.Colorable = greedy.IsGreedyKColorable(q, k)
		}
	}
	return res
}

// affinityOrder returns the indices of g's affinities sorted by decreasing
// weight (ties by affinity endpoints, so the order is deterministic). This
// is the classic priority: coalesce hot moves first.
func affinityOrder(g *graph.Graph) []int {
	affs := g.Affinities()
	idx := make([]int, len(affs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		x, y := affs[idx[a]], affs[idx[b]]
		if x.Weight != y.Weight {
			return x.Weight > y.Weight
		}
		if x.X != y.X {
			return x.X < y.X
		}
		return x.Y < y.Y
	})
	return idx
}

// state tracks an in-progress coalescing: the partition and the current
// coalesced graph (quotient), refreshed after each merge. Refreshing is
// one Quotient, O(V + E + A) plus zeroing the quotient's bitset; the
// drivers trade that for simplicity and correctness.
type state struct {
	g       *graph.Graph
	p       *graph.Partition
	cur     *graph.Graph
	old2new []graph.V
}

func newState(g *graph.Graph) *state {
	s := &state{g: g, p: graph.NewPartition(g.N())}
	s.refresh()
	return s
}

func (s *state) refresh() {
	q, old2new, err := graph.Quotient(s.g, s.p)
	if err != nil {
		// The drivers only union compatible classes, so this is a bug.
		panic("coalesce: partition became incompatible: " + err.Error())
	}
	s.cur = q
	s.old2new = old2new
}

// merge unions u and v (original-vertex ids) and refreshes the quotient.
func (s *state) merge(u, v graph.V) {
	s.p.Union(u, v)
	s.refresh()
}

// mapped returns the current quotient vertices of an affinity's endpoints.
func (s *state) mapped(a graph.Affinity) (graph.V, graph.V) {
	return s.old2new[a.X], s.old2new[a.Y]
}

// Aggressive coalesces affinities in decreasing weight order whenever the
// merge is structurally possible (no interference between the classes, no
// precolor conflict), ignoring colorability — Chaitin's aggressive
// coalescing, the heuristic counterpart of the paper's Theorem 2 problem.
// With k > 0 the result records whether the coalesced graph happens to stay
// greedy-k-colorable (aggressive gives no such guarantee).
func Aggressive(g *graph.Graph, k int) *Result {
	p := graph.NewPartition(g.N())
	affs := g.Affinities()
	for _, i := range affinityOrder(g) {
		a := affs[i]
		if graph.CanMerge(g, p, a.X, a.Y) {
			p.Union(a.X, a.Y)
		}
	}
	return summarize(g, p, k, 1)
}
