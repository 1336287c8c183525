// Package assignment solves the linear assignment problem: given an n×n cost
// matrix, find a permutation minimizing the total cost. It underlies both the
// bipartite graph-edit-distance upper bound (Riesen & Bunke) and the
// star-matching metric distance (Zeng et al.) in internal/ged.
//
// The Solver type implements the O(n³) Jonker-style shortest augmenting path
// variant of the Hungarian (Kuhn–Munkres) algorithm with reusable scratch
// arenas: a cold solve (Total, Solve), a warm-started one seeded with the row
// minima (TotalWarm), and a swap-polished greedy upper bound with a threshold
// exit (UpperBoundAtMost and its fused twin UpperBoundAtMostWithMins). Solve
// is the one-shot entry point, a thin wrapper over a pooled Solver with
// bit-identical results.
package assignment

// Solve returns a minimum-cost assignment for the square cost matrix, as a
// slice perm where row i is assigned to column perm[i], along with the total
// cost. Solve panics if the matrix is not square. An empty matrix yields an
// empty assignment with cost 0.
//
// It borrows a pooled Solver, so the only allocation in steady state is the
// returned perm slice; callers that do not need the permutation should hold a
// Solver and use Total instead.
func Solve(cost [][]float64) (perm []int, total float64) {
	s := Get()
	perm, total = s.Solve(cost)
	Put(s)
	return perm, total
}
