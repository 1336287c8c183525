package assignment

import (
	"math"
	"sync"
)

// Solver carries the scratch arenas (dual potentials, column assignments,
// augmenting-path bookkeeping) for the Hungarian solve so repeated calls on
// same-sized matrices allocate nothing. A Solver is not safe for concurrent
// use; recycle instances through Get/Put (a sync.Pool) or keep one per
// goroutine.
type Solver struct {
	u, v, minv []float64
	p, way     []int
	used       []bool
}

// NewSolver returns an empty Solver. Scratch grows on first use and is
// retained for subsequent calls.
func NewSolver() *Solver { return &Solver{} }

var solverPool = sync.Pool{New: func() any { return &Solver{} }}

// Get returns a Solver from the package pool.
func Get() *Solver { return solverPool.Get().(*Solver) }

// Put returns a Solver to the package pool. The caller must not use s after
// Put.
func Put(s *Solver) { solverPool.Put(s) }

const inf = math.MaxFloat64

// grow sizes the scratch arenas for an n×n matrix and resets the state that
// persists across rows (duals and column assignments). minv/used are reset
// per augmented row inside run.
func (s *Solver) grow(n int) {
	if cap(s.u) < n+1 {
		s.u = make([]float64, n+1)
		s.v = make([]float64, n+1)
		s.minv = make([]float64, n+1)
		s.p = make([]int, n+1)
		s.way = make([]int, n+1)
		s.used = make([]bool, n+1)
	} else {
		s.u = s.u[:n+1]
		s.v = s.v[:n+1]
		s.minv = s.minv[:n+1]
		s.p = s.p[:n+1]
		s.way = s.way[:n+1]
		s.used = s.used[:n+1]
	}
	for j := 0; j <= n; j++ {
		s.u[j], s.v[j], s.p[j] = 0, 0, 0
	}
}

func checkSquare(cost [][]float64) int {
	n := len(cost)
	for _, row := range cost {
		if len(row) != n {
			panic("assignment: cost matrix is not square")
		}
	}
	return n
}

// run executes the O(n³) shortest-augmenting-path Hungarian scheme, one row
// at a time from zeroed duals.
func (s *Solver) run(cost [][]float64, n int) {
	s.grow(n)
	for i := 1; i <= n; i++ {
		s.augmentRow(cost, n, i)
	}
}

// augmentRow grows the matching by one row via the shortest augmenting path
// in reduced costs, updating the duals along the alternating tree. It is the
// body of one iteration of run, factored out so warm starts (TotalWarm) can
// run it for a subset of rows: the procedure is the standard successive-
// shortest-path step and stays correct for any partial matching in p that
// satisfies complementary slackness under feasible duals, regardless of which
// rows built it.
func (s *Solver) augmentRow(cost [][]float64, n, i int) {
	u, v, p, way, minv, used := s.u, s.v, s.p, s.way, s.minv, s.used
	p[0] = i
	j0 := 0
	for j := 0; j <= n; j++ {
		minv[j] = inf
		used[j] = false
	}
	for {
		used[j0] = true
		i0 := p[j0]
		delta := inf
		j1 := 0
		for j := 1; j <= n; j++ {
			if used[j] {
				continue
			}
			cur := cost[i0-1][j-1] - u[i0] - v[j]
			if cur < minv[j] {
				minv[j] = cur
				way[j] = j0
			}
			if minv[j] < delta {
				delta = minv[j]
				j1 = j
			}
		}
		for j := 0; j <= n; j++ {
			if used[j] {
				u[p[j]] += delta
				v[j] -= delta
			} else {
				minv[j] -= delta
			}
		}
		j0 = j1
		if p[j0] == 0 {
			break
		}
	}
	for j0 != 0 {
		j1 := way[j0]
		p[j0] = p[j1]
		j0 = j1
	}
}

// totalFromState sums the assigned costs row by row — the same order Solve
// uses — without allocating the permutation. way is dead after run, so it
// doubles as the row→column inverse of p.
func (s *Solver) totalFromState(cost [][]float64, n int) float64 {
	inv := s.way
	for j := 1; j <= n; j++ {
		inv[s.p[j]] = j
	}
	total := 0.0
	for i := 1; i <= n; i++ {
		total += cost[i-1][inv[i]-1]
	}
	return total
}

// Solve returns a minimum-cost assignment for the square cost matrix, as a
// slice perm where row i is assigned to column perm[i], along with the total
// cost. It panics if the matrix is not square; an empty matrix yields an
// empty assignment with cost 0. Results are identical to the package-level
// Solve (which is a pooled wrapper around this method).
func (s *Solver) Solve(cost [][]float64) (perm []int, total float64) {
	n := checkSquare(cost)
	if n == 0 {
		return nil, 0
	}
	s.run(cost, n)
	perm = make([]int, n)
	for j := 1; j <= n; j++ {
		perm[s.p[j]-1] = j - 1
	}
	for i, j := range perm {
		total += cost[i][j]
	}
	return perm, total
}

// Total returns the minimum assignment cost without materializing the
// permutation; no allocations in steady state. The value is bit-identical to
// the total returned by Solve.
func (s *Solver) Total(cost [][]float64) float64 {
	n := checkSquare(cost)
	if n == 0 {
		return 0
	}
	s.run(cost, n)
	return s.totalFromState(cost, n)
}

// TotalWarm is Total with a Jonker–Volgenant-style warm start for callers
// that already hold each row's minimum (the star kernel's threshold test
// computes them in its greedy scan): the duals are initialized by row reduction —
// u[i] = rowMin[i], v = 0, feasible because no entry is below its row minimum
// — and each row first tries to claim a free column of zero reduced cost
// under the current duals, a match that satisfies complementary slackness
// outright. Only rows that find no such column run the O(n²)-per-tree
// augmentation, which remains correct for any partial matching built this way
// (see augmentRow). The returned optimum is the same value Total returns —
// with integral costs, bit for bit — though the minimizing assignment reached
// may differ on ties.
//
// rowMin[i] must equal min_j cost[i][j] for every row; costs must be
// non-negative. Violating either silently breaks dual feasibility and with it
// the optimality of the result.
func (s *Solver) TotalWarm(cost [][]float64, rowMin []float64) float64 {
	n := checkSquare(cost)
	if n == 0 {
		return 0
	}
	s.grow(n)
	u, v, p := s.u, s.v, s.p
	for i := 1; i <= n; i++ {
		u[i] = rowMin[i-1]
	}
	for i := 1; i <= n; i++ {
		row := cost[i-1]
		ui := u[i]
		matched := false
		for j := 1; j <= n; j++ {
			if p[j] == 0 && row[j-1]-ui-v[j] == 0 {
				p[j] = i
				matched = true
				break
			}
		}
		if !matched {
			s.augmentRow(cost, n, i)
		}
	}
	return s.totalFromState(cost, n)
}

// UpperBoundAtMost returns the cost of a feasible assignment built by the
// greedy row-by-row heuristic (each row takes its cheapest unused column,
// ties on the lowest index) followed by pairwise-swap polish passes, without
// allocating. Any feasible assignment bounds the optimum from above, so the
// result is ≥ Total(cost), and the polish never makes it worse than the raw
// greedy total. The moment the running cost drops to ≤ tau the current total
// is returned without finishing the polish — the caller only needs a witness
// that the optimum is ≤ tau, and any feasible assignment's cost is one
// (tau = -Inf never exits). Costs must be non-negative; with integral costs
// the incrementally updated running total is exact, so the early-exit value
// is the exact cost of the assignment held at that moment. It is the
// reference that UpperBoundAtMostWithMins, the star kernel's fused form, is
// tested against.
func (s *Solver) UpperBoundAtMost(cost [][]float64, tau float64) float64 {
	n := len(cost)
	if n == 0 {
		return 0
	}
	s.grow(n)
	used := s.used[:n]
	for j := range used {
		used[j] = false
	}
	asg := s.p[:n] // asg[i] = column assigned to row i (0-based)
	total := 0.0
	for i := 0; i < n; i++ {
		best, bestJ := math.MaxFloat64, -1
		row := cost[i]
		for j := 0; j < n; j++ {
			if !used[j] && row[j] < best {
				best, bestJ = row[j], j
			}
		}
		used[bestJ] = true
		asg[i] = bestJ
		total += best
	}
	if total <= tau {
		return total
	}
	return s.polish(cost, n, tau, total)
}

// UpperBoundAtMostWithMins fuses the greedy pass of UpperBoundAtMost with the
// row-minima scan that seeds the warm-started solve (TotalWarm): while greedy
// picks each row's cheapest unused column, the same cell reads also record the
// row's unconstrained minimum into rowMin and accumulate
// rowSum = Σ_i min_j cost[i][j] — the assignment-relaxed lower bound on the
// optimum. The fusion touches each cell exactly once where separate scans
// touch it twice; on the reference workload the dedicated minima pass cost
// more than the marginal compare here.
//
// When rowSum > tau the polish passes are skipped and the raw greedy total is
// returned: the lower bound already proves the optimum exceeds tau, so no
// feasible assignment can reach it and the caller discards ub in favor of the
// rowSum verdict. Otherwise ub is identical to UpperBoundAtMost(cost, tau) —
// same greedy, same polish, same early exit. rowMin must hold at least
// len(cost) entries; costs must be non-negative.
func (s *Solver) UpperBoundAtMostWithMins(cost [][]float64, tau float64, rowMin []float64) (ub, rowSum float64) {
	n := len(cost)
	if n == 0 {
		return 0, 0
	}
	s.grow(n)
	used := s.used[:n]
	for j := range used {
		used[j] = false
	}
	asg := s.p[:n] // asg[i] = column assigned to row i (0-based)
	total := 0.0
	for i := 0; i < n; i++ {
		row := cost[i]
		rmin := math.MaxFloat64
		best, bestJ := math.MaxFloat64, -1
		for j := 0; j < n; j++ {
			v := row[j]
			if v < rmin {
				rmin = v
			}
			if v < best && !used[j] {
				best, bestJ = v, j
			}
		}
		used[bestJ] = true
		asg[i] = bestJ
		total += best
		rowMin[i] = rmin
		rowSum += rmin
	}
	if rowSum > tau || total <= tau {
		return total, rowSum
	}
	return s.polish(cost, n, tau, total), rowSum
}

// polish improves the feasible assignment held in s.p[:n] (running cost
// total) with 2-swap passes: exchanging the columns of rows i and j keeps the
// assignment feasible; accept strict improvements until a full pass finds
// none. Greedy's mistakes are mostly pairwise (an early row grabbing a later
// row's best column), so the first couple of passes close most of the gap to
// the optimum at O(n²) each. The cap of 2 matches the measured yield on the
// reference workload — passes beyond the second decided well under 1% of
// greedy successes while every greedy *failure* paid for them in full. The
// moment the running total reaches ≤ tau it is returned as-is; otherwise the
// final total is re-summed from the assignment in row order, so for integral
// costs it is the exact cost of that assignment.
func (s *Solver) polish(cost [][]float64, n int, tau, total float64) float64 {
	asg := s.p[:n]
	for pass := 0; pass < 2; pass++ {
		improved := false
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				ci, cj := asg[i], asg[j]
				if after, before := cost[i][cj]+cost[j][ci], cost[i][ci]+cost[j][cj]; after < before {
					asg[i], asg[j] = cj, ci
					total -= before - after
					if total <= tau {
						return total
					}
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	total = 0
	for i := 0; i < n; i++ {
		total += cost[i][asg[i]]
	}
	return total
}
