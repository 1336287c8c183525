package ged

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"graphrep/internal/dataset"
	"graphrep/internal/graph"
)

// mkGraph builds a small labelled graph from label and edge lists.
func mkGraph(t testing.TB, labels []graph.Label, edges [][3]int) *graph.Graph {
	if t != nil {
		t.Helper()
	}
	b := graph.NewBuilder(len(labels))
	for _, l := range labels {
		b.AddVertex(l)
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1], graph.Label(e[2]))
	}
	g, err := b.Build(0)
	if err != nil {
		if t != nil {
			t.Fatalf("Build: %v", err)
		}
		panic(err)
	}
	return g
}

func randGraph(rng *rand.Rand, maxN int) *graph.Graph {
	n := 1 + rng.Intn(maxN)
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddVertex(graph.Label(rng.Intn(4)))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < 0.35 {
				b.AddEdge(u, v, graph.Label(rng.Intn(2)))
			}
		}
	}
	g, err := b.Build(0)
	if err != nil {
		panic(err)
	}
	return g
}

func TestCostsValidate(t *testing.T) {
	if err := UniformCosts().Validate(); err != nil {
		t.Errorf("UniformCosts invalid: %v", err)
	}
	bad := UniformCosts()
	bad.VSub = 5
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted VSub > VDel+VIns")
	}
	neg := UniformCosts()
	neg.EDel = -1
	if err := neg.Validate(); err == nil {
		t.Error("Validate accepted negative cost")
	}
	badE := UniformCosts()
	badE.ESub = 9
	if err := badE.Validate(); err == nil {
		t.Error("Validate accepted ESub > EDel+EIns")
	}
}

func TestExactIdentical(t *testing.T) {
	g := mkGraph(t, []graph.Label{1, 2, 3}, [][3]int{{0, 1, 0}, {1, 2, 0}})
	d, err := Exact(g, g, UniformCosts(), 0)
	if err != nil || d != 0 {
		t.Errorf("Exact(g,g) = %v, %v; want 0, nil", d, err)
	}
}

func TestExactKnownValues(t *testing.T) {
	c := UniformCosts()
	a := mkGraph(t, []graph.Label{1, 2}, [][3]int{{0, 1, 0}})
	b := mkGraph(t, []graph.Label{1, 3}, [][3]int{{0, 1, 0}})
	// One vertex relabel.
	if d, err := Exact(a, b, c, 0); err != nil || d != 1 {
		t.Errorf("relabel: d=%v err=%v, want 1", d, err)
	}
	// Add one vertex + one edge.
	e := mkGraph(t, []graph.Label{1, 2, 4}, [][3]int{{0, 1, 0}, {1, 2, 0}})
	if d, err := Exact(a, e, c, 0); err != nil || d != 2 {
		t.Errorf("grow: d=%v err=%v, want 2", d, err)
	}
	// Empty vs non-empty, both directions.
	empty := mkGraph(t, nil, nil)
	if d, err := Exact(empty, a, c, 0); err != nil || d != 3 {
		t.Errorf("empty->a: d=%v err=%v, want 3 (2 vertices + 1 edge)", d, err)
	}
	if d, err := Exact(a, empty, c, 0); err != nil || d != 3 {
		t.Errorf("a->empty: d=%v err=%v, want 3", d, err)
	}
	// Edge label substitution only.
	f := mkGraph(t, []graph.Label{1, 2}, [][3]int{{0, 1, 9}})
	if d, err := Exact(a, f, c, 0); err != nil || d != 1 {
		t.Errorf("edge relabel: d=%v err=%v, want 1", d, err)
	}
}

func TestExactSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := UniformCosts()
	for i := 0; i < 30; i++ {
		a, b := randGraph(rng, 5), randGraph(rng, 5)
		d1, err1 := Exact(a, b, c, 0)
		d2, err2 := Exact(b, a, c, 0)
		if err1 != nil || err2 != nil {
			t.Fatalf("err: %v %v", err1, err2)
		}
		if math.Abs(d1-d2) > 1e-9 {
			t.Fatalf("asymmetric: %v vs %v", d1, d2)
		}
	}
}

func TestExactBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b := randGraph(rng, 8), randGraph(rng, 8)
	if _, err := Exact(a, b, UniformCosts(), 1); err != ErrBudget {
		t.Errorf("err = %v, want ErrBudget", err)
	}
}

func TestBoundsSandwichExact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := UniformCosts()
	for i := 0; i < 60; i++ {
		a, b := randGraph(rng, 6), randGraph(rng, 6)
		exact, err := Exact(a, b, c, 0)
		if err != nil {
			t.Fatalf("Exact: %v", err)
		}
		lb := LowerBound(a, b, c)
		ub, m := Bipartite(a, b, c)
		if lb > exact+1e-9 {
			t.Fatalf("lower bound %v > exact %v", lb, exact)
		}
		if ub < exact-1e-9 {
			t.Fatalf("bipartite %v < exact %v", ub, exact)
		}
		if !m.Valid(b.Order()) {
			t.Fatalf("bipartite mapping invalid: %v", m)
		}
		if got := m.InducedCost(a, b, c); math.Abs(got-ub) > 1e-9 {
			t.Fatalf("InducedCost %v != Bipartite %v", got, ub)
		}
	}
}

// The mapping returned by ExactMapping must be a valid witness: its induced
// cost equals the optimal distance, in both argument orders (including the
// internal side swap).
func TestExactMappingIsWitness(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	c := UniformCosts()
	for i := 0; i < 40; i++ {
		a, b := randGraph(rng, 6), randGraph(rng, 4) // force swaps sometimes
		d, m, err := ExactMapping(a, b, c, 0)
		if err != nil {
			t.Fatalf("ExactMapping: %v", err)
		}
		if !m.Valid(b.Order()) || len(m) != a.Order() {
			t.Fatalf("invalid mapping %v for orders %d->%d", m, a.Order(), b.Order())
		}
		if got := m.InducedCost(a, b, c); math.Abs(got-d) > 1e-9 {
			t.Fatalf("witness cost %v != distance %v (mapping %v)", got, d, m)
		}
	}
}

func TestBeamIsUpperBoundOnExact(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	c := UniformCosts()
	for i := 0; i < 40; i++ {
		a, b := randGraph(rng, 6), randGraph(rng, 6)
		exact, err := Exact(a, b, c, 0)
		if err != nil {
			t.Fatalf("Exact: %v", err)
		}
		for _, width := range []int{1, 3, 10} {
			ub, err := Beam(a, b, c, width)
			if err != nil {
				t.Fatalf("Beam(%d): %v", width, err)
			}
			if ub < exact-1e-9 {
				t.Fatalf("Beam(%d) = %v < exact %v", width, ub, exact)
			}
		}
	}
}

func TestBeamWideMatchesExactOnTinyGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	c := UniformCosts()
	for i := 0; i < 25; i++ {
		a, b := randGraph(rng, 4), randGraph(rng, 4)
		exact, err := Exact(a, b, c, 0)
		if err != nil {
			t.Fatal(err)
		}
		// A beam wider than the whole search frontier is exhaustive.
		ub, err := Beam(a, b, c, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ub-exact) > 1e-9 {
			t.Fatalf("wide beam %v != exact %v", ub, exact)
		}
	}
}

func TestBeamEdgeCases(t *testing.T) {
	c := UniformCosts()
	empty := mkGraph(t, nil, nil)
	a := mkGraph(t, []graph.Label{1, 2}, [][3]int{{0, 1, 0}})
	if d, err := Beam(empty, a, c, 4); err != nil || d != 3 {
		t.Errorf("Beam(empty,a) = %v, %v; want 3", d, err)
	}
	if d, err := Beam(a, empty, c, 4); err != nil || d != 3 {
		t.Errorf("Beam(a,empty) = %v, %v; want 3", d, err)
	}
	if d, err := Beam(a, a, c, 1); err != nil || d != 0 {
		t.Errorf("Beam(a,a) = %v, %v; want 0", d, err)
	}
	if _, err := Beam(a, a, c, 0); err == nil {
		t.Error("width 0 accepted")
	}
}

func TestInducedCostIdentityMapping(t *testing.T) {
	g := mkGraph(t, []graph.Label{1, 2, 3}, [][3]int{{0, 1, 0}, {1, 2, 1}})
	m := Mapping{0, 1, 2}
	if got := m.InducedCost(g, g, UniformCosts()); got != 0 {
		t.Errorf("identity InducedCost = %v, want 0", got)
	}
	del := Mapping{Deleted, 1, 2}
	// Deleting vertex 0 also deletes edge (0,1); vertex 0 of g2 is inserted
	// along with its edge (0,1): total 1+1+1+1 = 4.
	if got := del.InducedCost(g, g, UniformCosts()); got != 4 {
		t.Errorf("delete-0 InducedCost = %v, want 4", got)
	}
}

func TestMappingValid(t *testing.T) {
	if !(Mapping{0, Deleted, 2}).Valid(3) {
		t.Error("valid mapping rejected")
	}
	if (Mapping{0, 0}).Valid(3) {
		t.Error("duplicate image accepted")
	}
	if (Mapping{5}).Valid(3) {
		t.Error("out-of-range image accepted")
	}
}

func TestStarDistanceBasics(t *testing.T) {
	a := mkGraph(t, []graph.Label{1, 2}, [][3]int{{0, 1, 0}})
	if d := StarDistance(a, a); d != 0 {
		t.Errorf("StarDistance(a,a) = %v, want 0", d)
	}
	empty := mkGraph(t, nil, nil)
	if d := StarDistance(empty, empty); d != 0 {
		t.Errorf("StarDistance(empty,empty) = %v, want 0", d)
	}
	// a vs empty: two stars of degree 1 each vs padding: (1+1)*2 = 4.
	if d := StarDistance(a, empty); d != 4 {
		t.Errorf("StarDistance(a,empty) = %v, want 4", d)
	}
}

func TestStarSigMatchesStarDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 40; i++ {
		a, b := randGraph(rng, 8), randGraph(rng, 8)
		want := StarDistance(a, b)
		got := NewStarSig(a).Distance(NewStarSig(b))
		if got != want {
			t.Fatalf("StarSig.Distance = %v, StarDistance = %v", got, want)
		}
	}
}

// The load-bearing property: StarDistance is a metric. Theorems 3-8 of the
// paper are only sound if d satisfies the triangle inequality.
func TestStarDistanceIsMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randGraph(r, 7), randGraph(r, 7), randGraph(r, 7)
		dab, dba := StarDistance(a, b), StarDistance(b, a)
		dac, dbc := StarDistance(a, c), StarDistance(b, c)
		if dab < 0 || math.Abs(dab-dba) > 1e-9 {
			return false
		}
		return dac <= dab+dbc+1e-9 // triangle through b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Exact GED with uniform costs must itself satisfy the triangle inequality on
// small graphs, validating the A* implementation.
func TestExactTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	c := UniformCosts()
	for i := 0; i < 25; i++ {
		a, b, g := randGraph(rng, 5), randGraph(rng, 5), randGraph(rng, 5)
		dab, e1 := Exact(a, b, c, 0)
		dbg, e2 := Exact(b, g, c, 0)
		dag, e3 := Exact(a, g, c, 0)
		if e1 != nil || e2 != nil || e3 != nil {
			t.Fatalf("errs: %v %v %v", e1, e2, e3)
		}
		if dag > dab+dbg+1e-9 {
			t.Fatalf("triangle violated: d(a,g)=%v > %v+%v", dag, dab, dbg)
		}
	}
}

// BenchmarkStarDistance measures the steady-state kernel on a far pair:
// precomputed StarSigs (metric.Star caches them per graph) feeding the pooled
// Hungarian solve. Two random graphs share almost no stars, so nearly the
// whole matrix survives cancellation. Steady-state allocs/op is 0.
func BenchmarkStarDistance(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	benchSigDistance(b, NewStarSig(randGraph(rng, 26)), NewStarSig(randGraph(rng, 26)))
}

// BenchmarkStarDistanceNear measures the pairs queries test: two adjacent
// graphs of one dud-like family, which share all but a few of their stars,
// so the kernel solves a small residual.
func BenchmarkStarDistanceNear(b *testing.B) {
	db, err := dataset.DUDLike(40, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchSigDistance(b, NewStarSig(db.Graph(0)), NewStarSig(db.Graph(1)))
}

func benchSigDistance(b *testing.B, s1, s2 *StarSig) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s1.Distance(s2)
	}
}

// BenchmarkStarDistanceDecompose retains the historical measurement including
// the per-call star decomposition (the cold path).
func BenchmarkStarDistanceDecompose(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g1, g2 := randGraph(rng, 26), randGraph(rng, 26)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		StarDistance(g1, g2)
	}
}

func BenchmarkBeamWidth5(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g1, g2 := randGraph(rng, 12), randGraph(rng, 12)
	c := UniformCosts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Beam(g1, g2, c, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBipartite(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g1, g2 := randGraph(rng, 26), randGraph(rng, 26)
	c := UniformCosts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Bipartite(g1, g2, c)
	}
}
