package engine

import (
	"context"
	"errors"

	"regcoal/internal/coalesce"
	"regcoal/internal/exact"
	"regcoal/internal/graph"
	"regcoal/internal/regalloc"
	"regcoal/internal/spill"
)

// RunStats is what a runner reports for one instance.
type RunStats struct {
	// CoalescedWeight / CoalescedMoves: affinity weight and count the run
	// eliminated. ResidualWeight is what remains.
	CoalescedWeight int64
	CoalescedMoves  int
	ResidualWeight  int64
	// GreedyAfter: the coalesced graph is greedy-k-colorable (for
	// allocators: the run finished without spills).
	GreedyAfter bool
	// Spills counts spilled vertices (allocator runners only).
	Spills int
	// Rounds counts driver iterations, when the strategy iterates.
	Rounds int
	// Skipped marks an instance the runner declined (with the reason),
	// e.g. exact search beyond its feasible envelope.
	Skipped    bool
	SkipReason string
}

// Runner is one column of the strategy matrix: a named evaluation of a
// coalescing instance. Run must be deterministic for a given instance,
// must not mutate the graph, and should honor ctx cancellation when its
// worst case is not polynomial.
type Runner struct {
	Name string
	Run  func(ctx context.Context, f *graph.File) (RunStats, error)
}

// statsFromResult converts a coalesce.Result.
func statsFromResult(res *coalesce.Result) RunStats {
	return RunStats{
		CoalescedWeight: res.CoalescedWeight,
		CoalescedMoves:  len(res.Coalesced),
		ResidualWeight:  res.RemainingWeight,
		GreedyAfter:     res.Colorable,
		Rounds:          res.Rounds,
	}
}

// StrategyRunner adapts one registry strategy to a matrix column.
func StrategyRunner(s *coalesce.NamedStrategy) Runner {
	return Runner{
		Name: s.Name,
		Run: func(ctx context.Context, f *graph.File) (RunStats, error) {
			res, err := s.Run(ctx, f.G, f.K)
			if errors.Is(err, coalesce.ErrInapplicable) {
				return RunStats{Skipped: true, SkipReason: err.Error()}, nil
			}
			if err != nil {
				return RunStats{}, err
			}
			return statsFromResult(res), nil
		},
	}
}

// StrategyRunners returns one runner per core strategy of the coalesce
// registry — the same names and semantics as regcoal.Run (the
// correspondence is pinned by TestMatrixMatchesFacade). Non-core registry
// entries (chordal-inc, vegdahl) are excluded so that persisted benchmark
// trajectories keep comparing like with like.
func StrategyRunners() []Runner {
	core := coalesce.CoreStrategies()
	out := make([]Runner, 0, len(core))
	for _, s := range core {
		out = append(out, StrategyRunner(s))
	}
	return out
}

// IRCRunner evaluates the worklist-driven iterated-register-coalescing
// allocator (George–Appel) on the instance.
func IRCRunner() Runner {
	return Runner{
		Name: "irc",
		Run: func(_ context.Context, f *graph.File) (RunStats, error) {
			res, err := regalloc.AllocateIRC(f.G, f.K)
			if err != nil {
				return RunStats{}, err
			}
			count, _ := res.Coloring.CoalescedMoves(f.G)
			return RunStats{
				CoalescedWeight: res.CoalescedWeight,
				CoalescedMoves:  count,
				ResidualWeight:  res.RemainingWeight,
				GreedyAfter:     len(res.Spilled) == 0,
				Spills:          len(res.Spilled),
				Rounds:          1,
			}, nil
		},
	}
}

// ExactRunner evaluates optimal conservative coalescing (minimum
// uncoalesced weight subject to the quotient staying greedy-k-colorable —
// the paper's Theorem 3 objective over the class heuristics maintain) by
// branch and bound, honoring ctx cancellation. It skips instances outside
// exact.CheckEnvelope (the per-run timeout still guards the admitted ones).
func ExactRunner() Runner {
	return Runner{
		Name: "exact",
		Run: func(ctx context.Context, f *graph.File) (RunStats, error) {
			g, k := f.G, f.K
			if err := exact.CheckEnvelope(g); err != nil {
				return RunStats{Skipped: true, SkipReason: err.Error()}, nil
			}
			res, err := exact.OptimalCoalescingCtx(ctx, g, k, exact.TargetGreedy, exact.MinimizeWeight)
			if err != nil {
				return RunStats{}, err
			}
			return statsFromResult(coalesce.ResultFromPartition(g, res.P, k)), nil
		},
	}
}

// SpillRunners evaluates the spill-everywhere subsystem as matrix
// columns: the greedy and incremental graph spillers (which must agree),
// and the exact branch-and-bound spiller inside its envelope. Spills and
// Rounds carry the plan shape; CoalescedWeight stays zero (spilling
// removes no moves by itself).
func SpillRunners() []Runner {
	plan := func(name string, run func(ctx context.Context, f *graph.File) (*spill.Plan, error)) Runner {
		return Runner{
			Name: name,
			Run: func(ctx context.Context, f *graph.File) (RunStats, error) {
				p, err := run(ctx, f)
				if err != nil {
					return RunStats{}, err
				}
				return RunStats{
					ResidualWeight: f.G.TotalAffinityWeight(),
					GreedyAfter:    true,
					Spills:         len(p.Spilled),
					Rounds:         p.Rounds,
				}, nil
			},
		}
	}
	return []Runner{
		plan("spill-greedy", func(_ context.Context, f *graph.File) (*spill.Plan, error) {
			return spill.Greedy(f, nil)
		}),
		plan("spill-inc", func(_ context.Context, f *graph.File) (*spill.Plan, error) {
			return spill.Incremental(f, nil)
		}),
		{
			Name: "spill-exact",
			Run: func(ctx context.Context, f *graph.File) (RunStats, error) {
				p, err := spill.Exact(ctx, f, nil)
				if err == spill.ErrEnvelope {
					return RunStats{Skipped: true, SkipReason: err.Error()}, nil
				}
				if err != nil {
					return RunStats{}, err
				}
				return RunStats{
					ResidualWeight: f.G.TotalAffinityWeight(),
					GreedyAfter:    true,
					Spills:         len(p.Spilled),
					Rounds:         p.Rounds,
				}, nil
			},
		},
	}
}

// SpillAllocRunners evaluates the spill-then-coalesce pipeline
// (regalloc.AllocateSpillFirst): pressure is lowered to k up front, then
// the residual is coalesced with the named mode — the spill × coalesce
// half of the matrix. The allocation is k-feasible by construction, so
// GreedyAfter is always true and Spills counts the phase-one evictions.
func SpillAllocRunners() []Runner {
	modes := []struct {
		name string
		mode regalloc.Mode
	}{
		{"spill+briggs+george", regalloc.ModeConservative},
		{"spill+optimistic", regalloc.ModeOptimistic},
	}
	out := make([]Runner, 0, len(modes))
	for _, m := range modes {
		m := m
		out = append(out, Runner{
			Name: m.name,
			Run: func(_ context.Context, f *graph.File) (RunStats, error) {
				res, err := regalloc.AllocateSpillFirst(f.G, f.K, m.mode)
				if err != nil {
					return RunStats{}, err
				}
				count, _ := res.Coloring.CoalescedMoves(f.G)
				return RunStats{
					CoalescedWeight: res.CoalescedWeight,
					CoalescedMoves:  count,
					ResidualWeight:  res.RemainingWeight,
					GreedyAfter:     true,
					Spills:          len(res.Spilled),
					Rounds:          1,
				}, nil
			},
		})
	}
	return out
}

// StandardMatrix is the full strategy matrix the benchmark drives: every
// regcoal strategy, the IRC allocator, the exact solver, the spill ×
// coalesce columns (spillers plus the spill-then-coalesce pipeline), and
// the session layer's incremental-vs-fresh differential pair.
func StandardMatrix() []Runner {
	m := StrategyRunners()
	m = append(m, IRCRunner(), ExactRunner())
	m = append(m, SpillRunners()...)
	m = append(m, SpillAllocRunners()...)
	m = append(m, SessionRunners()...)
	return m
}

// MatrixNames lists runner names in order.
func MatrixNames(rs []Runner) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Name
	}
	return out
}
