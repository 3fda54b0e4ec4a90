package engine

import (
	"context"
	"errors"

	"regcoal/internal/corpus"
	"regcoal/internal/graph"
	"regcoal/internal/session"
)

// sessionScriptSteps is the edit-script length the session matrix
// columns drive: long enough that the incremental machinery (dirty-set
// BFS, component memo, reuse) is exercised across vertex churn, edge
// flips, affinity rewrites, and k changes, short enough for quick mode.
const sessionScriptSteps = 48

// sessionStats maps a session solve onto the matrix's stat columns.
func sessionStats(sol *session.Solve, rounds int) RunStats {
	return RunStats{
		CoalescedWeight: sol.CoalescedWeight,
		CoalescedMoves:  sol.CoalescedMoves,
		ResidualWeight:  sol.RemainingWeight,
		GreedyAfter:     sol.Colorable,
		Rounds:          rounds,
	}
}

// sessionSkip lowers the session layer's structured client errors
// (precolored instances, k-less files) to a matrix skip.
func sessionSkip(err error) (RunStats, error) {
	var ce *session.ClientError
	if errors.As(err, &ce) {
		return RunStats{Skipped: true, SkipReason: ce.Msg}, nil
	}
	return RunStats{}, err
}

// SessionRunners returns the incremental-vs-fresh differential columns:
// both attach the same content-derived edit script to the instance;
// "session-inc" feeds it to a delta session one batch per delta (so every
// solve runs the incremental path over the previous state), while
// "session-fresh" applies the whole script to the naive reference model
// and solves the edited graph from scratch. Equal stat columns across
// the corpus are the session layer's correctness evidence at matrix
// scale.
func SessionRunners() []Runner {
	return []Runner{
		{
			Name: "session-inc",
			Run: func(ctx context.Context, f *graph.File) (RunStats, error) {
				script := corpus.GenEditScript(f, 0, corpus.ScriptSeed(f), sessionScriptSteps)
				s, err := session.New("engine", f, 0, "", nil)
				if err != nil {
					return sessionSkip(err)
				}
				for i := range script {
					if err := ctx.Err(); err != nil {
						return RunStats{}, err
					}
					if _, err := s.Apply(script[i : i+1]); err != nil {
						return RunStats{}, err
					}
				}
				var stats RunStats
				s.View(func(sol *session.Solve) { stats = sessionStats(sol, len(script)) })
				return stats, nil
			},
		},
		{
			Name: "session-fresh",
			Run: func(_ context.Context, f *graph.File) (RunStats, error) {
				script := corpus.GenEditScript(f, 0, corpus.ScriptSeed(f), sessionScriptSteps)
				edited := corpus.ApplyEditScript(f, 0, script)
				s, err := session.New("engine", edited, 0, "", nil)
				if err != nil {
					return sessionSkip(err)
				}
				var stats RunStats
				s.View(func(sol *session.Solve) { stats = sessionStats(sol, 1) })
				return stats, nil
			},
		},
	}
}
