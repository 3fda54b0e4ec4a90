package graph

// Test helpers of this package shared with the external graph_test
// package.
var (
	PermuteFile = permuteFile
	RandomPerm  = randomPerm
)
