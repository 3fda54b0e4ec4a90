package spill_test

// The exact search colors its residual through the pooled select the
// greedy spillers share. refFinishPlan is the finisher it used before:
// it materializes the residual as an induced subgraph and colors it with
// greedy.Color. Both must give every exact plan the same coloring, cost
// and rounds.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"regcoal/internal/corpus"
	"regcoal/internal/graph"
	"regcoal/internal/greedy"
	"regcoal/internal/spill"
)

// refFinishPlan colors the graph left after spilled is evicted through
// InducedSubgraph and greedy.Color and assembles the plan.
func refFinishPlan(f *graph.File, spilled []graph.V, costs []int64, rounds int) (*spill.Plan, error) {
	g := f.G
	evicted := make([]bool, g.N())
	for _, v := range spilled {
		evicted[v] = true
	}
	survivors := make([]graph.V, 0, g.N()-len(spilled))
	for v := 0; v < g.N(); v++ {
		if !evicted[v] {
			survivors = append(survivors, graph.V(v))
		}
	}
	sub, old2new := g.InducedSubgraph(survivors)
	col, ok := greedy.Color(sub, f.K)
	if !ok {
		return nil, fmt.Errorf("residual not greedy-%d-colorable after %d evictions", f.K, len(spilled))
	}
	plan := &spill.Plan{Spilled: spilled, Coloring: graph.NewColoring(g.N()), Rounds: rounds}
	for _, v := range survivors {
		plan.Coloring[v] = col[old2new[v]]
	}
	for _, v := range spilled {
		if costs == nil {
			plan.Cost++
		} else {
			plan.Cost += costs[v]
		}
	}
	return plan, nil
}

// checkExactAgainstRef runs the exact search on f and requires its plan
// to be the one the reference finisher builds from the same spill set.
// It reports whether the search ran, that is, whether the greedy
// incumbent spilled anything.
func checkExactAgainstRef(t *testing.T, name string, f *graph.File, costs []int64) bool {
	t.Helper()
	got, err := spill.ExactBudget(context.Background(), f, costs, 1<<8)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(got.Spilled) == 0 {
		return false
	}
	want, err := refFinishPlan(f, got.Spilled, costs, len(got.Spilled))
	if err != nil {
		t.Fatalf("%s (reference): %v", name, err)
	}
	assertPlansEqual(t, name, got, want)
	return true
}

func TestExactPlanMatchesInducedSubgraphFinisher(t *testing.T) {
	insts, err := corpus.BuildAll(corpus.Families(), corpus.Params{Seed: 20261018, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	plans := 0
	for _, inst := range insts {
		if inst.File.G.N() > spill.ExactMaxVertices {
			continue
		}
		for _, dk := range []int{-2, -1, 0} {
			k := inst.File.K + dk
			f := &graph.File{G: inst.File.G, K: k}
			if _, err := spill.Greedy(f, nil); err != nil {
				continue // k below 1 or under a pinned color
			}
			if checkExactAgainstRef(t, fmt.Sprintf("%s/k=%d", inst.Name, k), f, nil) {
				plans++
			}
		}
	}
	rng := rand.New(rand.NewSource(20261018))
	for trial := 0; trial < 1500; trial++ {
		n := 6 + rng.Intn(30)
		g := graph.RandomER(rng, n, 0.2+0.5*rng.Float64())
		k := 2 + rng.Intn(4)
		// Pin a few vertices to distinct colors, so no two pins conflict.
		for c, v := range rng.Perm(n)[:rng.Intn(k)] {
			g.SetPrecolored(graph.V(v), c)
		}
		var costs []int64
		if trial%2 == 1 {
			costs = make([]int64, n)
			for v := range costs {
				costs[v] = 1 + rng.Int63n(9)
			}
		}
		if checkExactAgainstRef(t, fmt.Sprintf("random/%d", trial), &graph.File{G: g, K: k}, costs) {
			plans++
		}
	}
	t.Logf("compared %d exact plans", plans)
	if plans < 1000 {
		t.Fatalf("compared only %d exact plans", plans)
	}
}
