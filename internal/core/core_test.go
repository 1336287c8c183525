package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"graphrep/internal/bitset"
	"graphrep/internal/graph"
	"graphrep/internal/metric"
)

// randDB builds a database of random small graphs with 1-D features.
func randDB(t testing.TB, n int, seed int64) (*graph.Database, metric.Metric) {
	if t != nil {
		t.Helper()
	}
	rng := rand.New(rand.NewSource(seed))
	graphs := make([]*graph.Graph, n)
	for i := range graphs {
		order := 2 + rng.Intn(6)
		b := graph.NewBuilder(order)
		for v := 0; v < order; v++ {
			b.AddVertex(graph.Label(rng.Intn(3)))
		}
		for u := 0; u < order; u++ {
			for v := u + 1; v < order; v++ {
				if rng.Float64() < 0.4 {
					b.AddEdge(u, v, 0)
				}
			}
		}
		b.SetFeatures([]float64{rng.Float64()})
		g, err := b.Build(graph.ID(i))
		if err != nil {
			panic(err)
		}
		graphs[i] = g
	}
	db, err := graph.NewDatabase(graphs)
	if err != nil {
		panic(err)
	}
	return db, metric.NewCache(metric.Star(db))
}

func allRelevant([]float64) bool { return true }

func TestQueryValidate(t *testing.T) {
	ok := Query{Relevance: allRelevant, Theta: 1, K: 3}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
	for _, bad := range []Query{
		{Relevance: nil, Theta: 1, K: 1},
		{Relevance: allRelevant, Theta: -1, K: 1},
		{Relevance: allRelevant, Theta: 1, K: 0},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("invalid query accepted: %+v", bad)
		}
	}
}

func TestRelevant(t *testing.T) {
	db, _ := randDB(t, 20, 1)
	rel := Relevant(db, func(f []float64) bool { return f[0] > 0.5 })
	for _, id := range rel {
		if db.Graph(id).Features()[0] <= 0.5 {
			t.Errorf("irrelevant graph %d selected", id)
		}
	}
	if len(Relevant(db, allRelevant)) != 20 {
		t.Error("allRelevant did not select everything")
	}
}

func TestPairwiseNeighborhoodsSymmetricAndReflexive(t *testing.T) {
	db, m := randDB(t, 25, 2)
	rel := Relevant(db, allRelevant)
	nb := PairwiseNeighborhoods(db, m, rel, 4)
	for i := range rel {
		if !nb.Sets[i].Contains(i) {
			t.Errorf("graph %d not in its own neighborhood", i)
		}
		for j := range rel {
			if nb.Sets[i].Contains(j) != nb.Sets[j].Contains(i) {
				t.Errorf("asymmetric neighborhood at (%d,%d)", i, j)
			}
			want := m.Distance(rel[i], rel[j]) <= 4
			if i != j && nb.Sets[i].Contains(j) != want {
				t.Errorf("membership (%d,%d) = %v, want %v", i, j, nb.Sets[i].Contains(j), want)
			}
		}
	}
}

func TestRangeNeighborhoodsMatchPairwise(t *testing.T) {
	db, m := randDB(t, 30, 3)
	rel := Relevant(db, func(f []float64) bool { return f[0] > 0.3 })
	want := PairwiseNeighborhoods(db, m, rel, 5)
	rs := metric.NewLinearScan(db.Len(), m)
	got := RangeNeighborhoods(db, rs, rel, 5)
	for i := range rel {
		if !want.Sets[i].Equal(got.Sets[i]) {
			t.Errorf("neighborhood %d differs: %v vs %v", i, want.Sets[i].Slice(), got.Sets[i].Slice())
		}
	}
}

func TestGreedyEmptyRelevantSet(t *testing.T) {
	db, m := randDB(t, 10, 4)
	res, err := BaselineGreedy(db, m, Query{Relevance: func([]float64) bool { return false }, Theta: 3, K: 5})
	if err != nil {
		t.Fatalf("BaselineGreedy: %v", err)
	}
	if len(res.Answer) != 0 || res.Power != 0 || res.CompressionRatio() != 0 {
		t.Errorf("empty result = %+v", res)
	}
}

func TestGreedyStopsAtFullCoverage(t *testing.T) {
	db, m := randDB(t, 15, 5)
	// Huge θ: the first pick covers everything; greedy must stop at 1.
	res, err := BaselineGreedy(db, m, Query{Relevance: allRelevant, Theta: 1e9, K: 10})
	if err != nil {
		t.Fatalf("BaselineGreedy: %v", err)
	}
	if len(res.Answer) != 1 || res.Power != 1 {
		t.Errorf("res = %+v, want single pick with π=1", res)
	}
	if res.CompressionRatio() != 15 {
		t.Errorf("CR = %v, want 15", res.CompressionRatio())
	}
}

func TestGreedyGainsMonotoneNonIncreasing(t *testing.T) {
	db, m := randDB(t, 60, 6)
	res, err := BaselineGreedy(db, m, Query{Relevance: allRelevant, Theta: 4, K: 20})
	if err != nil {
		t.Fatalf("BaselineGreedy: %v", err)
	}
	for i := 1; i < len(res.Gains); i++ {
		if res.Gains[i] > res.Gains[i-1] {
			t.Errorf("gains increased at pick %d: %v", i, res.Gains)
		}
	}
	if res.Covered > res.Relevant {
		t.Errorf("covered %d > relevant %d", res.Covered, res.Relevant)
	}
	sum := 0
	for _, g := range res.Gains {
		sum += g
	}
	if sum != res.Covered {
		t.Errorf("gain sum %d != covered %d", sum, res.Covered)
	}
}

// The core theoretical guarantee: greedy achieves at least (1 − 1/e) of the
// optimal representative power (Theorem 2 + Nemhauser et al.).
func TestGreedyApproximationGuarantee(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		db, m := randDB(t, 14, 100+seed)
		q := Query{Relevance: allRelevant, Theta: 3.5, K: 3}
		greedy, err := BaselineGreedy(db, m, q)
		if err != nil {
			t.Fatalf("BaselineGreedy: %v", err)
		}
		opt, err := BruteForceOptimal(db, m, q)
		if err != nil {
			t.Fatalf("BruteForceOptimal: %v", err)
		}
		if greedy.Power > opt.Power+1e-12 {
			t.Fatalf("seed %d: greedy %v beats optimum %v", seed, greedy.Power, opt.Power)
		}
		bound := (1 - 1/math.E) * opt.Power
		if greedy.Power < bound-1e-12 {
			t.Fatalf("seed %d: greedy %v below (1-1/e)·OPT = %v", seed, greedy.Power, bound)
		}
	}
}

// Theorem 2: π is submodular. Random S ⊆ T and g must satisfy
// π(S∪{g}) − π(S) ≥ π(T∪{g}) − π(T).
func TestPiSubmodularAndMonotone(t *testing.T) {
	db, m := randDB(t, 25, 7)
	rel := Relevant(db, allRelevant)
	nb := PairwiseNeighborhoods(db, m, rel, 4)
	union := func(ids []int) *bitset.Set {
		s := bitset.New(len(rel))
		for _, i := range ids {
			s.Or(nb.Sets[i])
		}
		return s
	}
	rng := rand.New(rand.NewSource(8))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var small, extra []int
		for i := range rel {
			if r.Float64() < 0.2 {
				small = append(small, i)
			} else if r.Float64() < 0.2 {
				extra = append(extra, i)
			}
		}
		large := append(append([]int(nil), small...), extra...)
		g := r.Intn(len(rel))
		cs, cl := union(small), union(large)
		gainSmall := nb.Sets[g].CountAndNot(cs)
		gainLarge := nb.Sets[g].CountAndNot(cl)
		// Submodularity + monotonicity (coverage can only grow).
		return gainSmall >= gainLarge && cl.Count() >= cs.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestPowerMatchesGreedyResult(t *testing.T) {
	db, m := randDB(t, 40, 9)
	q := Query{Relevance: func(f []float64) bool { return f[0] > 0.25 }, Theta: 4, K: 5}
	res, err := BaselineGreedy(db, m, q)
	if err != nil {
		t.Fatalf("BaselineGreedy: %v", err)
	}
	rel := Relevant(db, q.Relevance)
	p, covered := Power(db, m, rel, res.Answer, q.Theta)
	if math.Abs(p-res.Power) > 1e-12 || covered != res.Covered {
		t.Errorf("Power = %v/%d, greedy says %v/%d", p, covered, res.Power, res.Covered)
	}
	if p0, c0 := Power(db, m, nil, res.Answer, q.Theta); p0 != 0 || c0 != 0 {
		t.Error("Power with empty relevant set should be 0")
	}
}

func TestTraditionalTopK(t *testing.T) {
	db, _ := randDB(t, 30, 10)
	score := func(f []float64) float64 { return f[0] }
	top := TraditionalTopK(db, score, 5)
	if len(top) != 5 {
		t.Fatalf("len = %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if score(db.Graph(top[i]).Features()) > score(db.Graph(top[i-1]).Features()) {
			t.Error("not sorted by score")
		}
	}
	minTop := score(db.Graph(top[4]).Features())
	for _, g := range db.Graphs() {
		in := false
		for _, id := range top {
			if id == g.ID() {
				in = true
			}
		}
		if !in && score(g.Features()) > minTop {
			t.Errorf("graph %d outscores answer set but is excluded", g.ID())
		}
	}
	if got := TraditionalTopK(db, score, 99); len(got) != 30 {
		t.Errorf("k > n returned %d", len(got))
	}
}

func TestFirstQuartileRelevance(t *testing.T) {
	db, _ := randDB(t, 100, 11)
	q := FirstQuartileRelevance(db, nil)
	rel := Relevant(db, q)
	// Top quartile: about 25% of graphs (ties can add a few).
	if len(rel) < 20 || len(rel) > 40 {
		t.Errorf("quartile selected %d of 100", len(rel))
	}
	empty, _ := graph.NewDatabase(nil)
	if FirstQuartileRelevance(empty, nil)([]float64{1}) {
		t.Error("empty-db relevance returned true")
	}
}

func TestDimensionScore(t *testing.T) {
	f := []float64{1, 2, 3, 4}
	if got := DimensionScore(nil)(f); got != 2.5 {
		t.Errorf("all-dims score = %v, want 2.5", got)
	}
	if got := DimensionScore([]int{1, 3})(f); got != 3 {
		t.Errorf("dims score = %v, want 3", got)
	}
	if got := DimensionScore(nil)(nil); got != 0 {
		t.Errorf("empty features score = %v", got)
	}
	// An empty list means every dimension, like nil: the two encode to the
	// same JSON spec, so they must score alike.
	db, _ := randDB(t, 100, 11)
	all, empty := DimensionScore(nil), DimensionScore([]int{})
	for _, g := range db.Graphs() {
		if a, e := all(g.Features()), empty(g.Features()); e != a {
			t.Fatalf("graph %d: DimensionScore([]int{}) = %v, DimensionScore(nil) = %v", g.ID(), e, a)
		}
	}
}

func TestAssignRepresentatives(t *testing.T) {
	db, m := randDB(t, 40, 16)
	q := Query{Relevance: allRelevant, Theta: 4, K: 5}
	res, err := BaselineGreedy(db, m, q)
	if err != nil {
		t.Fatal(err)
	}
	rel := Relevant(db, q.Relevance)
	assign := AssignRepresentatives(db, m, rel, res.Answer, q.Theta)
	if len(assign) != len(res.Answer) {
		t.Fatalf("assign has %d exemplars, want %d", len(assign), len(res.Answer))
	}
	total := 0
	seen := make(map[graph.ID]bool)
	for a, members := range assign {
		for _, g := range members {
			if m.Distance(a, g) > q.Theta {
				t.Errorf("graph %d assigned to %d beyond θ", g, a)
			}
			if seen[g] {
				t.Errorf("graph %d assigned twice", g)
			}
			seen[g] = true
			total++
		}
		// Each exemplar represents itself.
		self := false
		for _, g := range members {
			if g == a {
				self = true
			}
		}
		if !self {
			t.Errorf("exemplar %d does not represent itself", a)
		}
	}
	if total != res.Covered {
		t.Errorf("assigned %d graphs, covered %d", total, res.Covered)
	}
	// Nearest-exemplar property.
	for a, members := range assign {
		for _, g := range members {
			for b := range assign {
				if m.Distance(b, g) < m.Distance(a, g) {
					t.Errorf("graph %d assigned to %d but %d is closer", g, a, b)
				}
			}
		}
	}
}

func TestTopicScoreAndRelevance(t *testing.T) {
	score := TopicScore([]int{0, 2})
	// f = [1, 0, 0.5, 0.3]; t = [1, 0, 1, 0].
	// min-sum = 1 + 0 + 0.5 + 0 = 1.5; max-sum = 1 + 0 + 1 + 0.3 = 2.3.
	f := []float64{1, 0, 0.5, 0.3}
	want := 1.5 / 2.3
	if got := score(f); math.Abs(got-want) > 1e-12 {
		t.Errorf("TopicScore = %v, want %v", got, want)
	}
	// Identical indicator vectors score 1.
	if got := TopicScore([]int{0})([]float64{1, 0}); got != 1 {
		t.Errorf("exact match score = %v", got)
	}
	// Disjoint topics score 0.
	if got := TopicScore([]int{1})([]float64{1, 0}); got != 0 {
		t.Errorf("disjoint score = %v", got)
	}
	// Empty everything scores 0.
	if got := TopicScore(nil)([]float64{0, 0}); got != 0 {
		t.Errorf("empty score = %v", got)
	}
	// Out-of-range topic indexes are ignored.
	if got := TopicScore([]int{99, -1, 0})([]float64{1}); got != 1 {
		t.Errorf("out-of-range topics: %v", got)
	}
	rel := TopicRelevance([]int{0, 2}, 0.7)
	if rel(f) { // score ≈ 0.652 < 0.7
		t.Error("relevance true below tau")
	}
	if !TopicRelevance([]int{0, 2}, 0.6)([]float64{1, 0, 1, 0}) {
		t.Error("relevance false at score 1")
	}
}

func TestWeightedScoreAndRelevance(t *testing.T) {
	w := []float64{3, 2, 1}
	if got := WeightedScore(w)([]float64{1, 1, 1}); got != 6 {
		t.Errorf("WeightedScore = %v, want 6", got)
	}
	// Extra feature dimensions beyond the weights are ignored.
	if got := WeightedScore(w)([]float64{1, 1, 1, 100}); got != 6 {
		t.Errorf("WeightedScore with extra dims = %v, want 6", got)
	}
	// Short feature vectors are fine.
	if got := WeightedScore(w)([]float64{2}); got != 6 {
		t.Errorf("WeightedScore short = %v, want 6", got)
	}
	rel := WeightedRelevance(w, 5)
	if !rel([]float64{1, 1, 1}) || rel([]float64{1, 0, 0}) {
		t.Error("WeightedRelevance thresholds wrong")
	}
}

func TestBruteForceOptimalSmall(t *testing.T) {
	db, m := randDB(t, 8, 12)
	q := Query{Relevance: allRelevant, Theta: 3, K: 2}
	opt, err := BruteForceOptimal(db, m, q)
	if err != nil {
		t.Fatalf("BruteForceOptimal: %v", err)
	}
	// Verify optimality exhaustively via Power.
	rel := Relevant(db, q.Relevance)
	for i := 0; i < len(rel); i++ {
		for j := i + 1; j < len(rel); j++ {
			p, _ := Power(db, m, rel, []graph.ID{rel[i], rel[j]}, q.Theta)
			if p > opt.Power+1e-12 {
				t.Fatalf("pair (%d,%d) has π=%v > optimal %v", rel[i], rel[j], p, opt.Power)
			}
		}
	}
}

func TestGreedyDeterministic(t *testing.T) {
	db, m := randDB(t, 50, 13)
	q := Query{Relevance: allRelevant, Theta: 4, K: 8}
	a, _ := BaselineGreedy(db, m, q)
	b, _ := BaselineGreedy(db, m, q)
	if !reflect.DeepEqual(a.Answer, b.Answer) {
		t.Errorf("non-deterministic greedy: %v vs %v", a.Answer, b.Answer)
	}
}

func TestRangeGreedyMatchesBaseline(t *testing.T) {
	db, m := randDB(t, 45, 14)
	q := Query{Relevance: allRelevant, Theta: 4, K: 6}
	base, err := BaselineGreedy(db, m, q)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := RangeGreedy(db, metric.NewLinearScan(db.Len(), m), q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Answer, rg.Answer) || base.Power != rg.Power {
		t.Errorf("RangeGreedy differs: %v (π=%v) vs %v (π=%v)", rg.Answer, rg.Power, base.Answer, base.Power)
	}
}

func TestInvalidQueriesRejectedEverywhere(t *testing.T) {
	db, m := randDB(t, 5, 15)
	bad := Query{Relevance: nil, Theta: 1, K: 1}
	if _, err := BaselineGreedy(db, m, bad); err == nil {
		t.Error("BaselineGreedy accepted bad query")
	}
	if _, err := RangeGreedy(db, metric.NewLinearScan(db.Len(), m), bad); err == nil {
		t.Error("RangeGreedy accepted bad query")
	}
	if _, err := BruteForceOptimal(db, m, bad); err == nil {
		t.Error("BruteForceOptimal accepted bad query")
	}
}
