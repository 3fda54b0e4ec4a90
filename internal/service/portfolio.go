package service

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"regcoal/internal/coalesce"
	"regcoal/internal/exact"
	"regcoal/internal/graph"
	"regcoal/internal/greedy"
	"regcoal/internal/obs"
	"regcoal/internal/regalloc"
	"regcoal/internal/spill"
)

// Deadline-raced strategy portfolio. Every interesting coalescing variant
// is NP-complete (the paper's Theorems 2–6), so the service never bets a
// request on one solver: it races a portfolio — cheap conservative
// heuristics, optimistic coalescing, the polynomial chordal algorithm
// where applicable, and the context-cancelable exact solver as an anytime
// upper bound — and returns the best answer on hand when the deadline
// fires. Pure polynomial heuristics run to completion regardless (they
// are the "best heuristic result" a deadline-exceeded request still
// gets); the exact search stops at the deadline and contributes the best
// coalescing found so far.

// racer is one portfolio member.
type racer[T any] struct {
	name string
	run  func(ctx context.Context) (T, error)
}

// race runs every member concurrently and returns the best answer by cmp
// (positive = first argument better; ties keep the earlier member, so a
// completed race is deterministic). It returns as soon as either every
// member finished, or the deadline fired and at least one answer exists.
// Members returning coalesce.ErrInapplicable are skipped; when every
// member declines, the race answers 400 (see declined).
//
// When tr is non-nil the full race timeline is recorded onto it: each
// member's start and finish (or the cut-off time for members still
// running when the race returned), its disposition, and the winner. All
// trace writes happen on this goroutine — member goroutines report their
// finish times through the outcome channel relative to a race-local
// base, so a straggler finishing after the race returned (and after the
// trace went back to its pool) never touches the trace.
func race[T any](ctx context.Context, members []racer[T], cmp func(a, b T) int, tr *obs.Trace) (best T, winner string, bestIdx int, deadlineHit bool, err error) {
	type outcome struct {
		idx   int
		val   T
		err   error
		endNS int64 // offset from base, reported by the member itself
	}
	base := time.Now()
	ch := make(chan outcome, len(members))
	for i, m := range members {
		i, m := i, m
		go func() {
			var v T
			var err error
			// The strategy label stacks on the solve goroutine's
			// endpoint/family labels (goroutines inherit their parent's
			// label set), so profiles slice by strategy within endpoint.
			pprof.Do(ctx, pprof.Labels("regcoal_strategy", m.name), func(ctx context.Context) {
				v, err = m.run(ctx)
			})
			ch <- outcome{idx: i, val: v, err: err, endNS: int64(time.Since(base))}
		}()
	}
	var ends []int64
	if tr != nil {
		ends = make([]int64, len(members))
		for i := range ends {
			ends[i] = -1 // not yet finished
		}
	}
	errs := make([]error, len(members))
	bestIdx = -1
	got := 0
	deadline := false
	var firstErr error
	take := func(o outcome) {
		got++
		errs[o.idx] = o.err
		if tr != nil {
			ends[o.idx] = o.endNS
		}
		if o.err != nil {
			if !errors.Is(o.err, coalesce.ErrInapplicable) && firstErr == nil {
				firstErr = o.err
			}
			return
		}
		if bestIdx == -1 || cmp(o.val, best) > 0 || (cmp(o.val, best) == 0 && o.idx < bestIdx) {
			best, bestIdx = o.val, o.idx
		}
	}
	// drain consumes every already-buffered outcome without blocking, so
	// a member that finished just before the deadline is never discarded.
	drain := func() {
		for got < len(members) {
			select {
			case o := <-ch:
				take(o)
			default:
				return
			}
		}
	}
	for got < len(members) {
		if deadline {
			drain()
			if bestIdx != -1 || got == len(members) {
				break // deadline fired and we have an answer: stop waiting
			}
			// Deadline fired with no answer yet: block for the next
			// finisher — the contract is best-effort, never an error.
			take(<-ch)
			continue
		}
		select {
		case o := <-ch:
			take(o)
		case <-ctx.Done():
			deadline = true
		}
	}
	if tr != nil {
		// Translate race-local offsets into trace-relative spans. Members
		// without an outcome yet were cut off: their end is the moment the
		// race stopped waiting, not their own finish.
		startNS := tr.Since() - int64(time.Since(base))
		if startNS < 0 {
			startNS = 0
		}
		raceEndNS := tr.Since()
		for i := range members {
			state := obs.MemberCutoff
			endNS := raceEndNS
			if ends[i] >= 0 {
				endNS = startNS + ends[i]
				switch {
				case i == bestIdx:
					state = obs.MemberWon
				case errs[i] == nil:
					state = obs.MemberFinished
				case errors.Is(errs[i], coalesce.ErrInapplicable):
					state = obs.MemberDeclined
				default:
					state = obs.MemberError
				}
			}
			tr.AddMember(members[i].name, startNS, endNS, state)
		}
	}
	if bestIdx == -1 {
		if firstErr != nil {
			return best, "", -1, deadline, firstErr
		}
		return best, "", -1, deadline, declined(members, errs)
	}
	return best, members[bestIdx].name, bestIdx, deadline, nil
}

// declined answers a race in which every member declined the instance
// with a 400 naming each member and its reason, in member order. A
// decline depends only on the instance and the strategy list, so every
// node declines the same request the same way and no retry can help.
func declined[T any](members []racer[T], errs []error) error {
	var b strings.Builder
	b.WriteString("no strategy applies to this instance")
	for i, m := range members {
		if i == 0 {
			b.WriteString(": ")
		} else {
			b.WriteString("; ")
		}
		b.WriteString(m.name + ": " + strings.TrimPrefix(errs[i].Error(), coalesce.ErrInapplicable.Error()+": "))
	}
	return badRequest("%s", b.String())
}

// DefaultPortfolio is the coalescing portfolio raced when a request does
// not pick its own: the fast guaranteed-answer heuristics first, then the
// powerful ones, then the anytime exact solver.
func DefaultPortfolio() []string {
	return []string{
		"aggressive", "briggs+george", "ext-george", "brute",
		"optimistic", "chordal-inc", "exact",
	}
}

// coalesceRacers resolves strategy names into portfolio members. Names
// come from the coalesce registry; "exact" is the service's anytime
// branch-and-bound member.
func coalesceRacers(f *graph.File, names []string) ([]racer[*coalesce.Result], error) {
	members := make([]racer[*coalesce.Result], 0, len(names))
	for _, name := range names {
		if name == "exact" {
			members = append(members, exactRacer(f))
			continue
		}
		st, ok := coalesce.LookupStrategy(name)
		if !ok {
			return nil, fmt.Errorf("unknown strategy %q (have %v and \"exact\")", name, coalesce.StrategyNames())
		}
		members = append(members, racer[*coalesce.Result]{
			name: st.Name,
			run: func(ctx context.Context) (*coalesce.Result, error) {
				return st.Run(ctx, f.G, f.K)
			},
		})
	}
	return members, nil
}

// exactRacer wraps the exact solver as an anytime member: outside its
// feasibility envelope (exact.CheckEnvelope) it declines; canceled
// mid-search it reports the best coalescing found so far instead of an
// error.
func exactRacer(f *graph.File) racer[*coalesce.Result] {
	return racer[*coalesce.Result]{
		name: "exact",
		run: func(ctx context.Context) (*coalesce.Result, error) {
			if err := exact.CheckEnvelope(f.G); err != nil {
				return nil, fmt.Errorf("%w: %v", coalesce.ErrInapplicable, err)
			}
			res, _ := exact.OptimalCoalescingCtx(ctx, f.G, f.K, exact.TargetGreedy, exact.MinimizeWeight)
			if res.P == nil {
				return nil, fmt.Errorf("%w: exact search produced no partition", coalesce.ErrInapplicable)
			}
			return coalesce.ResultFromPartition(f.G, res.P, f.K), nil
		},
	}
}

// cmpCoalesce prefers answers that keep the graph colorable, then the
// most coalesced weight, then the fewest residual moves.
func cmpCoalesce(a, b *coalesce.Result) int {
	if a.Colorable != b.Colorable {
		if a.Colorable {
			return 1
		}
		return -1
	}
	switch {
	case a.CoalescedWeight != b.CoalescedWeight:
		if a.CoalescedWeight > b.CoalescedWeight {
			return 1
		}
		return -1
	case len(a.Remaining) != len(b.Remaining):
		if len(a.Remaining) < len(b.Remaining) {
			return 1
		}
		return -1
	}
	return 0
}

// allocNames lists the allocator portfolio member names. The spill-first
// members run the two-phase pipeline (regalloc.AllocateSpillFirst): on
// instances whose pressure exceeds k they are the members that guarantee
// a k-feasible answer with a deliberate spill set, where the optimistic
// select of the others may strand many vertices.
func allocNames() []string {
	return []string{"irc", "briggs+george", "optimistic", "none",
		"spill+briggs+george", "spill+optimistic"}
}

// allocateRacers builds the allocator portfolio: the IRC allocator,
// Chaitin-style allocations over selected coalescing modes, and the
// spill-then-coalesce pipeline. All members are polynomial; the race
// exists so a slow member never delays a fast winning answer past the
// deadline.
func allocateRacers(f *graph.File, names []string) ([]racer[*regalloc.Result], error) {
	build := func(name string) (racer[*regalloc.Result], error) {
		var run func() (*regalloc.Result, error)
		switch name {
		case "irc":
			run = func() (*regalloc.Result, error) { return regalloc.AllocateIRC(f.G, f.K) }
		case "briggs+george":
			run = func() (*regalloc.Result, error) { return regalloc.Allocate(f.G, f.K, regalloc.ModeConservative) }
		case "optimistic":
			run = func() (*regalloc.Result, error) { return regalloc.Allocate(f.G, f.K, regalloc.ModeOptimistic) }
		case "none":
			run = func() (*regalloc.Result, error) { return regalloc.Allocate(f.G, f.K, regalloc.ModeNone) }
		case "spill+briggs+george":
			run = spillFirstRun(f, regalloc.ModeConservative)
		case "spill+optimistic":
			run = spillFirstRun(f, regalloc.ModeOptimistic)
		default:
			return racer[*regalloc.Result]{}, fmt.Errorf("unknown allocator %q (have %v)", name, allocNames())
		}
		return racer[*regalloc.Result]{
			name: name,
			run:  func(context.Context) (*regalloc.Result, error) { return run() },
		}, nil
	}
	if len(names) == 0 {
		names = allocNames()
	}
	members := make([]racer[*regalloc.Result], 0, len(names))
	for _, n := range names {
		m, err := build(n)
		if err != nil {
			return nil, err
		}
		members = append(members, m)
	}
	return members, nil
}

// spillFirstRun wraps the two-phase allocator as a portfolio member that
// declines already-feasible graphs: with nothing to spill, phase two
// recomputes exactly what the plain member of the same mode computes and
// can never win the tie-break, so running it would only burn a worker.
// The feasibility check is one greedy elimination, a fraction of a full
// allocation.
func spillFirstRun(f *graph.File, mode regalloc.Mode) func() (*regalloc.Result, error) {
	return func() (*regalloc.Result, error) {
		if greedy.IsGreedyKColorable(f.G, f.K) {
			return nil, fmt.Errorf("%w: graph is greedy-%d-colorable, spill-first adds nothing over %v",
				coalesce.ErrInapplicable, f.K, mode)
		}
		return regalloc.AllocateSpillFirst(f.G, f.K, mode)
	}
}

// spillNames lists the spill portfolio member names.
func spillNames() []string { return []string{"greedy", "incremental", "exact"} }

// spillRacers builds the spill portfolio: the rebuild-per-round greedy
// spiller, the incremental variant (identical answers, less work — racing
// both is deliberate: whichever the scheduler favors wins with the same
// plan), and the anytime exact search, which declines instances beyond
// its envelope and contributes its incumbent when the deadline fires.
// The exact member runs under the node budget spillExactNodes so one
// request never monopolizes a worker for the full deadline when the
// heuristics answered in microseconds.
func spillRacers(f *graph.File, names []string) ([]racer[*spill.Plan], error) {
	if len(names) == 0 {
		names = spillNames()
	}
	members := make([]racer[*spill.Plan], 0, len(names))
	for _, name := range names {
		var run func(ctx context.Context) (*spill.Plan, error)
		switch name {
		case "greedy":
			run = func(context.Context) (*spill.Plan, error) { return spill.Greedy(f, nil) }
		case "incremental":
			run = func(context.Context) (*spill.Plan, error) { return spill.Incremental(f, nil) }
		case "exact":
			run = func(ctx context.Context) (*spill.Plan, error) {
				p, err := spill.ExactBudget(ctx, f, nil, spillExactNodes)
				if err == spill.ErrEnvelope {
					return nil, fmt.Errorf("%w: %v", coalesce.ErrInapplicable, err)
				}
				return p, err
			}
		default:
			return nil, fmt.Errorf("unknown spiller %q (have %v)", name, spillNames())
		}
		members = append(members, racer[*spill.Plan]{name: name, run: run})
	}
	return members, nil
}

// cmpSpill prefers the cheapest spill set, then the fewest spills, then a
// proven-optimal answer.
func cmpSpill(a, b *spill.Plan) int {
	switch {
	case a.Cost != b.Cost:
		if a.Cost < b.Cost {
			return 1
		}
		return -1
	case len(a.Spilled) != len(b.Spilled):
		if len(a.Spilled) < len(b.Spilled) {
			return 1
		}
		return -1
	case a.Optimal != b.Optimal:
		if a.Optimal {
			return 1
		}
		return -1
	}
	return 0
}

// cmpAllocate prefers the fewest spills, then the most coalesced weight.
func cmpAllocate(a, b *regalloc.Result) int {
	switch {
	case len(a.Spilled) != len(b.Spilled):
		if len(a.Spilled) < len(b.Spilled) {
			return 1
		}
		return -1
	case a.CoalescedWeight != b.CoalescedWeight:
		if a.CoalescedWeight > b.CoalescedWeight {
			return 1
		}
		return -1
	}
	return 0
}

// normalizeStrategies validates and canonicalizes a request's strategy
// list for the cache key: sorted, deduplicated.
func normalizeStrategies(names []string) []string {
	seen := make(map[string]bool, len(names))
	out := make([]string, 0, len(names))
	for _, n := range names {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}
