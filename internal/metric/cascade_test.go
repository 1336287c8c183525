package metric

import (
	"math"
	"math/rand"
	"testing"

	"graphrep/internal/ged"
	"graphrep/internal/graph"
)

// craftGraph builds a graph with an explicit ID from label and edge lists.
func craftGraph(t *testing.T, id graph.ID, labels []graph.Label, edges [][3]int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(len(labels))
	for _, l := range labels {
		b.AddVertex(l)
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1], graph.Label(e[2]))
	}
	g, err := b.Build(id)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

// graphSpec is a buildable graph description, so searched pairs can be
// re-built with their final database IDs.
type graphSpec struct {
	labels []graph.Label
	edges  [][3]int
}

func (s graphSpec) build(t *testing.T, id graph.ID) *graph.Graph {
	t.Helper()
	return craftGraph(t, id, s.labels, s.edges)
}

func randSpec(rng *rand.Rand, maxN int) graphSpec {
	n := 1 + rng.Intn(maxN)
	s := graphSpec{labels: make([]graph.Label, n)}
	for i := range s.labels {
		s.labels[i] = graph.Label(rng.Intn(4))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < 0.35 {
				s.edges = append(s.edges, [3]int{u, v, rng.Intn(2)})
			}
		}
	}
	return s
}

// findStagePair deterministically searches seeded random graph pairs for one
// whose bounded decision terminates at the wanted stage, returning the pair
// and the threshold that forces it. The returned graphs carry placeholder
// IDs; callers re-ID them via Clone when assembling a database.
func findStagePair(t *testing.T, want ged.Stage) (a, b *graph.Graph, tau float64) {
	t.Helper()
	for seed := int64(0); seed < 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ga, gb := randSpec(rng, 12).build(t, 0), randSpec(rng, 12).build(t, 0)
		siga, sigb := ged.NewStarSig(ga), ged.NewStarSig(gb)
		d := siga.Distance(sigb)
		for _, tau := range []float64{d, d - 1, d - 2, math.Floor(d / 2), math.Floor(3 * d / 4)} {
			if tau < 0 {
				continue
			}
			if dec := siga.DistanceAtMost(sigb, tau); dec.Stage == want {
				return ga, gb, tau
			}
		}
	}
	t.Fatalf("no pair terminating at stage %v within the search budget", want)
	return
}

// TestCascadeTiersCrafted drives one pair through each stage of the
// threshold test and pins the attribution: every bounded decision must land
// on the intended stage's counter, and only there. Hand-crafted pairs whose
// bound values are derivable on paper:
//
//   - embedding: a single far-off vertex vs a labelled ring — the cached
//     vectors alone prove d > θ;
//   - rowsum-miss: many copies of a motif pair with identical center and
//     spoke histograms (the embedding bound is 0) whose asymmetric stars
//     each cost ≥ 1 to pair, pushing the row-minima sum far past θ. No
//     stage prunes on that sum, so the miss falls through to the exact
//     solve: one completed solve, verdict false;
//   - greedy: two isomorphic graphs under distinct IDs at θ = 0 — only the
//     greedy upper bound (a zero-cost assignment) can prove d ≤ 0;
//
// and the exact stage uses a deterministically searched pair.
func TestCascadeTiersCrafted(t *testing.T) {
	// Crafted specs (see the derivations in the doc comment).
	embedA := graphSpec{labels: []graph.Label{9}}
	embedB := graphSpec{
		labels: []graph.Label{1, 1, 1, 1, 1, 1},
		edges:  [][3]int{{0, 1, 0}, {1, 2, 0}, {2, 3, 0}, {3, 4, 0}, {4, 5, 0}, {5, 0, 0}},
	}
	rowMinA := graphSpec{labels: []graph.Label{1, 2, 2, 1}, edges: [][3]int{{0, 1, 0}, {0, 2, 0}}}
	rowMinB := graphSpec{labels: []graph.Label{1, 2, 1, 2}, edges: [][3]int{{0, 1, 0}, {2, 3, 0}}}
	// Each motif copy contributes 2 to the row-minima sum (the two stars with
	// mismatched spoke counts cost ≥ 1 against every counterpart); 17 copies
	// give rowSum = 34, far above θ = 1.
	motifs := func(base graphSpec, k int) graphSpec {
		var s graphSpec
		for c := 0; c < k; c++ {
			off := c * len(base.labels)
			s.labels = append(s.labels, base.labels...)
			for _, e := range base.edges {
				s.edges = append(s.edges, [3]int{e[0] + off, e[1] + off, e[2]})
			}
		}
		return s
	}
	rowMinDeepA, rowMinDeepB := motifs(rowMinA, 17), motifs(rowMinB, 17)
	iso := graphSpec{labels: []graph.Label{1, 2}, edges: [][3]int{{0, 1, 0}}}

	exactA, exactB, exactTau := findStagePair(t, ged.StageExact)

	crafted := []graphSpec{embedA, embedB, rowMinDeepA, rowMinDeepB, iso, iso}
	graphs := make([]*graph.Graph, 0, len(crafted)+2)
	for i, s := range crafted {
		graphs = append(graphs, s.build(t, graph.ID(i)))
	}
	// The searched pair carries placeholder IDs; re-build it at its database
	// positions.
	for _, g := range []*graph.Graph{exactA, exactB} {
		id := graph.ID(len(graphs))
		gg, err := g.Clone(id).Build(id)
		if err != nil {
			t.Fatalf("re-ID searched graph: %v", err)
		}
		graphs = append(graphs, gg)
	}
	db, err := graph.NewDatabase(graphs)
	if err != nil {
		t.Fatal(err)
	}
	star := Star(db)
	sc := star.(StageCounter)

	rows := []struct {
		name string
		a, b graph.ID
		tau  float64
		leq  bool
		tier func(PruneStats) int64
		// solves is how many completed Hungarian runs the decision spends:
		// 0 for a pure prune, 1 for the exact stage.
		solves int64
	}{
		{"embedding", 0, 1, 1, false, func(p PruneStats) int64 { return p.Embedding }, 0},
		{"rowsum-miss", 2, 3, 1, false, func(p PruneStats) int64 { return p.BoundedExact }, 1},
		{"greedy", 4, 5, 0, true, func(p PruneStats) int64 { return p.Greedy }, 0},
		{"exact", 6, 7, exactTau, true, func(p PruneStats) int64 { return p.BoundedExact }, 1},
	}
	// The searched exact-stage pair may resolve either verdict; derive it.
	rows[3].leq = ged.NewStarSig(graphs[6]).Distance(ged.NewStarSig(graphs[7])) <= exactTau

	for _, row := range rows {
		before := sc.PruneStats()
		got := within(star, row.a, row.b, row.tau)
		after := sc.PruneStats()
		if got != row.leq {
			t.Errorf("%s: Decide(%d,%d,%v) = %v, want %v", row.name, row.a, row.b, row.tau, got, row.leq)
		}
		if delta := row.tier(after) - row.tier(before); delta != 1 {
			t.Errorf("%s: tier counter moved by %d, want 1 (before %+v, after %+v)",
				row.name, delta, before, after)
		}
		if deltaAll := after.Pruned() + after.FullSolves() - before.Pruned() - before.FullSolves(); deltaAll != 1 {
			t.Errorf("%s: %d bounded decisions recorded, want exactly 1", row.name, deltaAll)
		}
		if delta := after.FullSolves() - before.FullSolves(); delta != row.solves {
			t.Errorf("%s: FullSolves() moved by %d, want %d", row.name, delta, row.solves)
		}
		wantPruned := 1 - row.solves
		if delta := after.Pruned() - before.Pruned(); delta != wantPruned {
			t.Errorf("%s: Pruned() moved by %d, want %d", row.name, delta, wantPruned)
		}
	}
	if s := sc.PruneStats(); s.ExactValues != 0 {
		t.Errorf("threshold tests issued %d plain Distance computations, want 0 (%+v)", s.ExactValues, s)
	}
}

// Priming the metric with index-carried embeddings must let far pairs be
// decided from the vectors alone — before any star signature exists — and
// must attribute those decisions to the embedding stage.
func TestPrimedEmbeddingsDecideWithoutSigs(t *testing.T) {
	db := testDB(t, 12, 21)
	star := Star(db)
	embs := make([]*ged.Embedding, db.Len())
	for i := range embs {
		embs[i] = ged.NewEmbedding(db.Graph(graph.ID(i)))
	}
	star.(EmbeddingPrimer).PrimeEmbeddings(0, embs)
	sc := star.(StageCounter)
	decided := 0
	for a := graph.ID(0); int(a) < db.Len(); a++ {
		for b := a + 1; int(b) < db.Len(); b++ {
			if lb := embs[a].LowerBound(embs[b]); lb > 0 {
				if within(star, a, b, lb-0.5) {
					t.Fatalf("Decide(%d,%d,%v) = true below the embedding lower bound", a, b, lb-0.5)
				}
				decided++
			}
		}
	}
	if decided == 0 {
		t.Fatal("no pair had a positive embedding bound; test corpus degenerate")
	}
	if s := sc.PruneStats(); s.Embedding != int64(decided) {
		t.Errorf("embedding stage decided %d of %d primed far-pair tests (%+v)", s.Embedding, decided, s)
	}
}
