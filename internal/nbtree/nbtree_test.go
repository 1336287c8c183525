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
		if err := tree.Validate(db); err != nil {
			t.Fatalf("Validate(b=%d): %v", b, err)
		}
		if tree.Root().Size != db.Len() {
			t.Errorf("root size = %d, want %d", tree.Root().Size, db.Len())
		}
		if tree.Stats().Leaves != db.Len() {
			t.Errorf("leaves = %d, want %d", tree.Stats().Leaves, db.Len())
		}
		if tree.Height() < 1 {
			t.Errorf("height = %d", tree.Height())
		}
		if tree.Bytes() <= 0 {
			t.Error("Bytes <= 0")
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

func TestNodeIdxMatchesNodesSlice(t *testing.T) {
	db, m := randDB(t, 40, 4)
	tree, err := Build(db, m, Options{Branching: 3}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for i, n := range tree.Nodes() {
		if n.Idx != i {
			t.Fatalf("node at %d has Idx %d", i, n.Idx)
		}
	}
	if tree.Nodes()[0] != tree.Root() {
		t.Error("root is not first node")
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
	if err := tree.Validate(db); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for _, c := range tree.Root().Children {
		if !c.Leaf {
			t.Errorf("root child %d is not a leaf; the tree should be flat", c.Idx)
		}
	}
}

func TestSingletonDatabase(t *testing.T) {
	db, m := randDB(t, 1, 6)
	tree, err := Build(db, m, Options{Branching: 2}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if !tree.Root().Leaf || tree.Height() != 0 {
		t.Errorf("singleton tree malformed: leaf=%v height=%d", tree.Root().Leaf, tree.Height())
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
	if err := tree.Validate(db); err != nil {
		t.Fatalf("Validate: %v", err)
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

func TestVisitGraphsAndGraphs(t *testing.T) {
	db, m := randDB(t, 30, 10)
	tree, err := Build(db, m, Options{Branching: 3}, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for _, n := range tree.Nodes() {
		g := n.Graphs()
		if len(g) != n.Size {
			t.Fatalf("node %d: Graphs len %d != Size %d", n.Idx, len(g), n.Size)
		}
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
