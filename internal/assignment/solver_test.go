package assignment

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolverMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s := NewSolver()
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(8)
		cost := randomCost(rng, n)
		wantPerm, wantTotal := Solve(cost)
		gotPerm, gotTotal := s.Solve(cost)
		if gotTotal != wantTotal {
			t.Fatalf("trial %d: Solver total %v != Solve total %v", trial, gotTotal, wantTotal)
		}
		if len(gotPerm) != len(wantPerm) {
			t.Fatalf("trial %d: perm lengths differ", trial)
		}
		if got := s.Total(cost); got != wantTotal {
			t.Fatalf("trial %d: Total %v != Solve total %v", trial, got, wantTotal)
		}
	}
}

// integralCost mirrors the star kernel's cost domain: small non-negative
// integers stored in float64, where all Hungarian arithmetic stays exact.
func integralCost(rng *rand.Rand, n int) [][]float64 {
	c := make([][]float64, n)
	for i := range c {
		c[i] = make([]float64, n)
		for j := range c[i] {
			c[i][j] = float64(rng.Intn(30))
		}
	}
	return c
}

// TotalWarm's warm start must be a pure speedup: whatever partial matching
// the zero-reduced-cost pre-match happens to build, the returned optimum is
// bit-identical to Total's on integral costs. Tight moduli force heavy cost
// ties — the regime where the pre-match claims most rows and tie-broken
// assignments diverge from the cold solve's.
func TestTotalWarmMatchesTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cold, warm := NewSolver(), NewSolver()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		modulus := 1 + r.Intn(30)
		cost := make([][]float64, n)
		rowMin := make([]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			m := math.MaxFloat64
			for j := range cost[i] {
				cost[i][j] = float64(r.Intn(modulus))
				if cost[i][j] < m {
					m = cost[i][j]
				}
			}
			rowMin[i] = m
		}
		want := cold.Total(cost)
		if got := warm.TotalWarm(cost, rowMin); got != want {
			t.Logf("seed=%d n=%d mod=%d: TotalWarm %v != Total %v", seed, n, modulus, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestTotalWarmEmpty(t *testing.T) {
	s := NewSolver()
	if got := s.TotalWarm(nil, nil); got != 0 {
		t.Errorf("TotalWarm(nil) = %v, want 0", got)
	}
}

// The fused greedy+minima scan must agree with its unfused halves: rowMin
// holds the exact per-row minima, rowSum is the assignment-relaxed lower
// bound (≤ optimum), ub is a feasible assignment's cost (≥ Total), and
// whenever the rowSum short-circuit cannot fire the value is bit-identical to
// UpperBoundAtMost at the same tau.
func TestUpperBoundAtMostWithMinsAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	plain, fused := NewSolver(), NewSolver()
	rowMin := make([]float64, 16)
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(12)
		cost := integralCost(rng, n)
		opt := plain.Total(cost)
		for _, tau := range []float64{-1, 0, opt / 2, opt - 1, opt, opt + 1, 2 * opt, math.Inf(-1)} {
			ub, rowSum := fused.UpperBoundAtMostWithMins(cost, tau, rowMin)
			wantSum := 0.0
			for i := 0; i < n; i++ {
				m := cost[i][0]
				for _, v := range cost[i][1:] {
					if v < m {
						m = v
					}
				}
				if rowMin[i] != m {
					t.Fatalf("trial %d n=%d: rowMin[%d] = %v, want row minimum %v", trial, n, i, rowMin[i], m)
				}
				wantSum += m
			}
			if rowSum != wantSum {
				t.Fatalf("trial %d tau=%v: rowSum %v != Σ row minima %v", trial, tau, rowSum, wantSum)
			}
			if rowSum > opt {
				t.Fatalf("trial %d: rowSum %v above optimum %v — not a lower bound", trial, rowSum, opt)
			}
			if ub < opt {
				t.Fatalf("trial %d tau=%v: ub %v below Total %v — not a feasible assignment's cost", trial, tau, ub, opt)
			}
			if rowSum <= tau {
				if want := plain.UpperBoundAtMost(cost, tau); ub != want {
					t.Fatalf("trial %d tau=%v: fused ub %v != UpperBoundAtMost %v", trial, tau, ub, want)
				}
			}
		}
	}
}

// The fully polished upper bound (UpperBoundAtMost with no threshold exit)
// must sandwich between the exact optimum and the plain greedy total: it is a
// feasible assignment's cost (≥ optimum) that the swap polish never makes
// worse than greedy alone. Below every row-minima sum the fused scan skips
// the polish, so at tau = -Inf it returns the plain greedy total.
func TestUpperBoundSandwich(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	s := NewSolver()
	rowMin := make([]float64, 12)
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(12)
		cost := integralCost(rng, n)
		opt := s.Total(cost)
		greedy, _ := s.UpperBoundAtMostWithMins(cost, math.Inf(-1), rowMin)
		ub := s.UpperBoundAtMost(cost, math.Inf(-1))
		if ub < opt {
			t.Fatalf("trial %d: UpperBoundAtMost %v below optimum %v", trial, ub, opt)
		}
		if ub > greedy {
			t.Fatalf("trial %d: UpperBoundAtMost %v above greedy %v", trial, ub, greedy)
		}
	}
}

func TestUpperBoundAtMostWithMinsEmpty(t *testing.T) {
	s := NewSolver()
	if ub, rowSum := s.UpperBoundAtMostWithMins(nil, 0, nil); ub != 0 || rowSum != 0 {
		t.Errorf("UpperBoundAtMostWithMins(nil) = %v, %v, want 0, 0", ub, rowSum)
	}
}

// A Solver reused across sizes (large, then small, then large) must not leak
// state between calls.
func TestSolverReuseAcrossSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s := NewSolver()
	for _, n := range []int{12, 3, 12, 1, 7, 12} {
		cost := randomCost(rng, n)
		_, want := Solve(cost)
		if got := s.Total(cost); got != want {
			t.Fatalf("n=%d: reused Solver total %v != fresh Solve %v", n, got, want)
		}
	}
}

func TestSolverAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(37))
	cost := randomCost(rng, 24)
	s := NewSolver()
	s.Total(cost) // warm the arenas
	if allocs := testing.AllocsPerRun(50, func() { s.Total(cost) }); allocs != 0 {
		t.Errorf("Solver.Total allocates %v per op after warmup, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() { s.UpperBoundAtMost(cost, math.Inf(-1)) }); allocs != 0 {
		t.Errorf("Solver.UpperBoundAtMost allocates %v per op after warmup, want 0", allocs)
	}
	rowMin := make([]float64, len(cost))
	s.UpperBoundAtMostWithMins(cost, 1e9, rowMin) // also fills rowMin for TotalWarm
	if allocs := testing.AllocsPerRun(50, func() { s.UpperBoundAtMostWithMins(cost, 1e9, rowMin) }); allocs != 0 {
		t.Errorf("Solver.UpperBoundAtMostWithMins allocates %v per op after warmup, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() { s.TotalWarm(cost, rowMin) }); allocs != 0 {
		t.Errorf("Solver.TotalWarm allocates %v per op after warmup, want 0", allocs)
	}
}

func BenchmarkSolverTotal32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cost := randomCost(rng, 32)
	s := NewSolver()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Total(cost)
	}
}
