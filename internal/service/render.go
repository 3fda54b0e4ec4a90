package service

import (
	"sort"

	"regcoal/internal/coalesce"
	"regcoal/internal/graph"
	"regcoal/internal/greedy"
	"regcoal/internal/regalloc"
	"regcoal/internal/spill"
)

// Entries live in canonical vertex numbering (internal/graph CanonicalForm)
// so one cached solution answers every request whose instance has the same
// canonical hash. Building an entry translates a request-space solution
// into canonical space; rendering translates it back through the
// requesting instance's own permutation. Every response — computed or
// cached — is rendered through the same path, which is what makes repeated
// requests byte-identical.

// coalesceEntry converts a strategy result into a canonical-space entry.
func coalesceEntry(f *graph.File, perm []graph.V, res *coalesce.Result, winner string, deadlineHit bool) *entry {
	e := &entry{
		Strategy:        winner,
		CoalescedMoves:  len(res.Coalesced),
		CoalescedWeight: res.CoalescedWeight,
		RemainingWeight: res.RemainingWeight,
		Colorable:       res.Colorable,
		DeadlineHit:     deadlineHit,
		Classes:         canonClasses(res.P, perm),
	}
	if res.Colorable {
		if q, old2new, err := graph.Quotient(f.G, res.P); err == nil {
			if qcol, ok := greedy.Color(q, f.K); ok {
				lifted := qcol.Lift(old2new)
				e.Coloring = make([]int, len(lifted))
				for v, c := range lifted {
					e.Coloring[perm[v]] = c
				}
			}
		}
	}
	return e
}

// allocateEntry converts an allocator result into a canonical-space entry.
func allocateEntry(perm []graph.V, res *regalloc.Result, winner string, deadlineHit bool) *entry {
	e := &entry{
		Strategy:        winner,
		CoalescedWeight: res.CoalescedWeight,
		RemainingWeight: res.RemainingWeight,
		Spills:          len(res.Spilled),
		DeadlineHit:     deadlineHit,
		Coloring:        make([]int, len(res.Coloring)),
	}
	for v, c := range res.Coloring {
		e.Coloring[perm[v]] = c
	}
	for _, v := range res.Spilled {
		e.Spilled = append(e.Spilled, int(perm[v]))
	}
	sort.Ints(e.Spilled)
	return e
}

// spillEntry converts a spill plan into a canonical-space entry.
func spillEntry(perm []graph.V, plan *spill.Plan, winner string, deadlineHit bool) *entry {
	e := &entry{
		Strategy:    winner,
		Spills:      len(plan.Spilled),
		SpillCost:   plan.Cost,
		Optimal:     plan.Optimal,
		DeadlineHit: deadlineHit,
		Coloring:    make([]int, len(plan.Coloring)),
	}
	for v, c := range plan.Coloring {
		e.Coloring[perm[v]] = c
	}
	for _, v := range plan.Spilled {
		e.Spilled = append(e.Spilled, int(perm[v]))
	}
	sort.Ints(e.Spilled)
	return e
}

// canonClasses maps partition classes into canonical ids, each class
// sorted, classes ordered by smallest member.
func canonClasses(p *graph.Partition, perm []graph.V) [][]int {
	classes := p.Classes()
	out := make([][]int, 0, len(classes))
	for _, cls := range classes {
		c := make([]int, len(cls))
		for i, v := range cls {
			c[i] = int(perm[v])
		}
		sort.Ints(c)
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// renderCoalesce maps a canonical-space entry back into the requesting
// instance's numbering.
func renderCoalesce(f *graph.File, hash string, perm []graph.V, e *entry) *CoalesceResult {
	inv := make([]int, len(perm))
	for v, p := range perm {
		inv[p] = v
	}
	classes := make([][]int, 0, len(e.Classes))
	for _, cls := range e.Classes {
		c := make([]int, len(cls))
		for i, cid := range cls {
			c[i] = inv[cid]
		}
		sort.Ints(c)
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i][0] < classes[j][0] })
	res := &CoalesceResult{
		Hash:            hash,
		Vertices:        f.G.N(),
		Edges:           f.G.E(),
		Moves:           f.G.NumAffinities(),
		K:               f.K,
		Strategy:        e.Strategy,
		CoalescedMoves:  e.CoalescedMoves,
		CoalescedWeight: e.CoalescedWeight,
		RemainingWeight: e.RemainingWeight,
		Colorable:       e.Colorable,
		DeadlineHit:     e.DeadlineHit,
		Classes:         classes,
	}
	if e.Coloring != nil {
		res.Coloring = make([]int, f.G.N())
		for v := range res.Coloring {
			res.Coloring[v] = e.Coloring[perm[v]]
		}
	}
	return res
}

// renderSpill maps a canonical-space spill entry back into the requesting
// instance's numbering.
func renderSpill(f *graph.File, hash string, perm []graph.V, e *entry) *SpillResult {
	inv := make([]int, len(perm))
	for v, p := range perm {
		inv[p] = v
	}
	res := &SpillResult{
		Hash:        hash,
		Vertices:    f.G.N(),
		Edges:       f.G.E(),
		Moves:       f.G.NumAffinities(),
		K:           f.K,
		Strategy:    e.Strategy,
		Spills:      e.Spills,
		SpillCost:   e.SpillCost,
		Optimal:     e.Optimal,
		DeadlineHit: e.DeadlineHit,
	}
	res.Coloring = make([]int, f.G.N())
	for v := range res.Coloring {
		res.Coloring[v] = e.Coloring[perm[v]]
	}
	for _, cid := range e.Spilled {
		res.Spilled = append(res.Spilled, inv[cid])
	}
	sort.Ints(res.Spilled)
	return res
}

// renderAllocate is renderCoalesce for the allocator endpoint.
func renderAllocate(f *graph.File, hash string, perm []graph.V, e *entry) *AllocateResult {
	inv := make([]int, len(perm))
	for v, p := range perm {
		inv[p] = v
	}
	res := &AllocateResult{
		Hash:            hash,
		Vertices:        f.G.N(),
		Edges:           f.G.E(),
		Moves:           f.G.NumAffinities(),
		K:               f.K,
		Strategy:        e.Strategy,
		Spills:          e.Spills,
		CoalescedWeight: e.CoalescedWeight,
		RemainingWeight: e.RemainingWeight,
		DeadlineHit:     e.DeadlineHit,
	}
	res.Coloring = make([]int, f.G.N())
	for v := range res.Coloring {
		res.Coloring[v] = e.Coloring[perm[v]]
	}
	for _, cid := range e.Spilled {
		res.Spilled = append(res.Spilled, inv[cid])
	}
	sort.Ints(res.Spilled)
	return res
}
