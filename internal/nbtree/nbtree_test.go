package nbtree

import (
	"math/rand"
	"testing"

	"graphrep/internal/graph"
	"graphrep/internal/metric"
	"graphrep/internal/vantage"
)

func randDB(t testing.TB, n int, seed int64) (*graph.Database, metric.Metric) {
	if t != nil {
		t.Helper()
	}
	rng := rand.New(rand.NewSource(seed))
	graphs := make([]*graph.Graph, n)
	for i := range graphs {
		order := 2 + rng.Intn(7)
		b := graph.NewBuilder(order)
		for v := 0; v < order; v++ {
			b.AddVertex(graph.Label(rng.Intn(3)))
		}
		for u := 0; u < order; u++ {
			for v := u + 1; v < order; v++ {
				if rng.Float64() < 0.35 {
					b.AddEdge(u, v, 0)
				}
			}
		}
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

func TestBuildValidates(t *testing.T) {
	db, m := randDB(t, 60, 1)
	for _, b := range []int{2, 4, 8} {
		tree, err := Build(db, m, Options{Branching: b}, rand.New(rand.NewSource(2)))
		if err != nil {
			t.Fatalf("Build(b=%d): %v", b, err)
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("Validate(b=%d): %v", b, err)
		}
		if err := tree.Covers(0, db.Len()); err != nil {
			t.Fatalf("Covers(b=%d): %v", b, err)
		}
		if int(tree.Sizes[0]) != db.Len() {
			t.Errorf("root size = %d, want %d", tree.Sizes[0], db.Len())
		}
		if st := tree.Stats(); st.Leaves != db.Len() || st.Nodes != tree.Len() {
			t.Errorf("stats count %d nodes / %d leaves, want %d / %d", st.Nodes, st.Leaves, tree.Len(), db.Len())
		}
		if tree.Leaf(0) {
			t.Error("root of a 60-graph tree is a leaf")
		}
		if tree.Bytes() != int64(21*tree.Len()) {
			t.Errorf("Bytes = %d, want 21 per node", tree.Bytes())
		}
	}
}

func TestBuildErrors(t *testing.T) {
	db, m := randDB(t, 5, 3)
	if _, err := Build(db, m, Options{Branching: 1}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("branching=1 accepted")
	}
	empty, _ := graph.NewDatabase(nil)
	if _, err := Build(empty, m, Options{Branching: 2}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("empty database accepted")
	}
}

// TestBuildEmitsPreorder pins the layout the index format stores: nodes in
// DFS preorder, so walking the child chains from the root visits 0, 1, 2, …
// in order, and every chain runs in ascending index order.
func TestBuildEmitsPreorder(t *testing.T) {
	db, m := randDB(t, 40, 4)
	tree, err := Build(db, m, Options{Branching: 3}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	next := int32(0)
	var visit func(i int32)
	visit = func(i int32) {
		if i != next {
			t.Fatalf("preorder walk reached node %d, want %d", i, next)
		}
		next++
		for c := tree.FirstChild[i]; c != -1; c = tree.NextSibling[c] {
			visit(c)
		}
	}
	visit(0)
	if int(next) != tree.Len() {
		t.Fatalf("preorder walk visited %d of %d nodes", next, tree.Len())
	}
}

func TestDuplicateGraphs(t *testing.T) {
	// All graphs identical: distance 0 everywhere. Construction must
	// terminate and produce a flat, valid tree.
	b := graph.NewBuilder(2)
	b.AddVertex(1)
	b.AddVertex(1)
	b.AddEdge(0, 1, 0)
	proto, err := b.Build(0)
	if err != nil {
		t.Fatal(err)
	}
	graphs := make([]*graph.Graph, 10)
	graphs[0] = proto
	for i := 1; i < 10; i++ {
		g, err := proto.Clone(graph.ID(i)).Build(graph.ID(i))
		if err != nil {
			t.Fatal(err)
		}
		graphs[i] = g
	}
	db, err := graph.NewDatabase(graphs)
	if err != nil {
		t.Fatal(err)
	}
	m := metric.Star(db)
	tree, err := Build(db, m, Options{Branching: 3}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := tree.Covers(0, db.Len()); err != nil {
		t.Fatalf("Covers: %v", err)
	}
	for c := tree.FirstChild[0]; c != -1; c = tree.NextSibling[c] {
		if !tree.Leaf(c) {
			t.Errorf("root child %d is not a leaf; the tree should be flat", c)
		}
	}
}

func TestSingletonDatabase(t *testing.T) {
	db, m := randDB(t, 1, 6)
	tree, err := Build(db, m, Options{Branching: 2}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if tree.Len() != 1 || !tree.Leaf(0) {
		t.Errorf("singleton tree malformed: %d nodes, root leaf=%v", tree.Len(), tree.Leaf(0))
	}
}

func TestVPAcceleratedBuildIsValidAndPrunes(t *testing.T) {
	db, base := randDB(t, 120, 7)
	rng := rand.New(rand.NewSource(8))
	vps, err := vantage.SelectVPs(db, base, 6, vantage.SelectMaxMin, rng)
	if err != nil {
		t.Fatalf("SelectVPs: %v", err)
	}
	vo, err := vantage.Build(db, base, vps)
	if err != nil {
		t.Fatalf("vantage.Build: %v", err)
	}
	counter := metric.NewCounter(base)
	tree, err := Build(db, counter, Options{Branching: 4, VO: vo}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := tree.Covers(0, db.Len()); err != nil {
		t.Fatalf("Covers: %v", err)
	}
	st := tree.Stats()
	if st.PrunedDistances == 0 {
		t.Error("vantage pruning never fired")
	}
	if st.ExactDistances != counter.Count() {
		t.Errorf("stats exact = %d, counter = %d", st.ExactDistances, counter.Count())
	}
	// Unaccelerated build must do strictly more exact work.
	counter2 := metric.NewCounter(base)
	if _, err := Build(db, counter2, Options{Branching: 4}, rand.New(rand.NewSource(9))); err != nil {
		t.Fatalf("Build plain: %v", err)
	}
	if counter.Count() >= counter2.Count() {
		t.Errorf("VP build used %d distances, plain build %d; expected fewer", counter.Count(), counter2.Count())
	}
}

func TestConstructionCostScalesAsBLogB(t *testing.T) {
	// §6.4 cost analysis: O(|D|·b·log_b|D|) exact distances without VP
	// acceleration. Sanity-check the measured count is within a small factor.
	db, m := randDB(t, 200, 12)
	counter := metric.NewCounter(m)
	_, err := Build(db, counter, Options{Branching: 4}, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	n := float64(db.Len())
	bound := n * 4 * 6 // log_4(200) ≈ 3.8, allow slack: farthest-first costs ~b per level
	if got := float64(counter.Count()); got > bound*4 {
		t.Errorf("construction used %v distances, loose bound %v", got, bound*4)
	}
}
