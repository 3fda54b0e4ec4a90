package graph

import (
	"fmt"
	"slices"
)

// Test helpers of this package shared with the external graph_test
// package.
var (
	PermuteFile = permuteFile
	RandomPerm  = randomPerm
)

// DiffGraphs returns "" when got and want agree field for field: vertex
// and edge counts, bitset stride and words, every neighbor slice, raw
// names, precolors, the affinity list and the frozen flag, the affinity
// list and each neighbor slice also on being nil. Otherwise it describes
// the first field that differs.
func DiffGraphs(got, want *Graph) string {
	switch {
	case got.n != want.n || got.edges != want.edges:
		return fmt.Sprintf("n=%d e=%d, want n=%d e=%d", got.n, got.edges, want.n, want.edges)
	case got.stride != want.stride || !slices.Equal(got.bits, want.bits):
		return fmt.Sprintf("bitset (stride %d) differs from the wanted one (stride %d)", got.stride, want.stride)
	case !slices.Equal(got.names, want.names):
		return fmt.Sprintf("names %q, want %q", got.names, want.names)
	case !slices.Equal(got.precolored, want.precolored):
		return fmt.Sprintf("precolors %v, want %v", got.precolored, want.precolored)
	case (got.affinities == nil) != (want.affinities == nil) || !slices.Equal(got.affinities, want.affinities):
		return fmt.Sprintf("affinities %v (nil %t), want %v (nil %t)", got.affinities, got.affinities == nil, want.affinities, want.affinities == nil)
	case got.frozen != want.frozen:
		return fmt.Sprintf("frozen %t, want %t", got.frozen, want.frozen)
	}
	for v := range got.nbr {
		if (got.nbr[v] == nil) != (want.nbr[v] == nil) || !slices.Equal(got.nbr[v], want.nbr[v]) {
			return fmt.Sprintf("neighbors of %d: %v, want %v", v, got.nbr[v], want.nbr[v])
		}
	}
	return ""
}
