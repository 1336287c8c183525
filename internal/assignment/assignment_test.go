package assignment

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// bruteForce finds the optimal assignment by enumerating permutations.
func bruteForce(cost [][]float64) float64 {
	n := len(cost)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := math.MaxFloat64
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			total := 0.0
			for r, c := range perm {
				total += cost[r][c]
			}
			if total < best {
				best = total
			}
			return
		}
		for j := i; j < n; j++ {
			perm[i], perm[j] = perm[j], perm[i]
			rec(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	rec(0)
	return best
}

func randomCost(rng *rand.Rand, n int) [][]float64 {
	c := make([][]float64, n)
	for i := range c {
		c[i] = make([]float64, n)
		for j := range c[i] {
			c[i][j] = math.Floor(rng.Float64()*100) / 10
		}
	}
	return c
}

func TestSolveEmpty(t *testing.T) {
	perm, total := Solve(nil)
	if len(perm) != 0 || total != 0 {
		t.Errorf("Solve(nil) = %v, %v", perm, total)
	}
}

func TestSolveKnown(t *testing.T) {
	cost := [][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	perm, total := Solve(cost)
	if total != 5 { // 1 + 2 + 2
		t.Errorf("total = %v, want 5", total)
	}
	seen := make(map[int]bool)
	for _, j := range perm {
		if seen[j] {
			t.Fatalf("perm %v is not a permutation", perm)
		}
		seen[j] = true
	}
}

func TestSolveNotSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for non-square matrix")
		}
	}()
	Solve([][]float64{{1, 2}, {3}})
}

func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		cost := randomCost(rng, n)
		_, got := Solve(cost)
		want := bruteForce(cost)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: Solve = %v, brute force = %v, cost=%v", trial, got, want, cost)
		}
	}
}

// The greedy heuristic behind UpperBoundAtMost (run to completion, no
// threshold exit) must leave a valid permutation in the solver's assignment
// scratch and cost at least the optimum.
func TestGreedyIsValidUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewSolver()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		cost := randomCost(r, n)
		gt := s.UpperBoundAtMost(cost, math.Inf(-1))
		seen := make(map[int]bool)
		for _, j := range s.p[:n] {
			if j < 0 || j >= n || seen[j] {
				return false
			}
			seen[j] = true
		}
		_, ot := Solve(cost)
		return gt >= ot-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: the optimal value never exceeds the cost of the identity
// permutation (a specific feasible solution).
func TestSolveDominatesIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		cost := randomCost(r, n)
		_, opt := Solve(cost)
		ident := 0.0
		for i := 0; i < n; i++ {
			ident += cost[i][i]
		}
		return opt <= ident+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSolve32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cost := randomCost(rng, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Solve(cost)
	}
}
