package nbtree

import (
	"math/rand"
	"reflect"
	"testing"

	"graphrep/internal/graph"
)

func buildTestTree(t *testing.T, n int, branching int) *Tree {
	t.Helper()
	db, m := randDB(t, n, 11)
	tree, err := Build(db, m, Options{Branching: branching}, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return tree
}

func treesEqual(t *testing.T, a, b *Tree) {
	t.Helper()
	if len(a.Nodes()) != len(b.Nodes()) {
		t.Fatalf("node counts differ: %d vs %d", len(a.Nodes()), len(b.Nodes()))
	}
	for i := range a.Nodes() {
		na, nb := a.Nodes()[i], b.Nodes()[i]
		if na.Centroid != nb.Centroid || na.Size != nb.Size || na.Leaf != nb.Leaf || len(na.Children) != len(nb.Children) {
			t.Fatalf("node %d differs: %+v vs %+v", i, na, nb)
		}
		for j := range na.Children {
			if na.Children[j].Idx != nb.Children[j].Idx {
				t.Fatalf("node %d child %d: idx %d vs %d", i, j, na.Children[j].Idx, nb.Children[j].Idx)
			}
		}
		pa, pb := -1, -1
		if na.Parent != nil {
			pa = na.Parent.Idx
		}
		if nb.Parent != nil {
			pb = nb.Parent.Idx
		}
		if pa != pb {
			t.Fatalf("node %d parent: %d vs %d", i, pa, pb)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats differ: %+v vs %+v", a.Stats(), b.Stats())
	}
}

func TestFlattenRebuildRoundTrip(t *testing.T) {
	tree := buildTestTree(t, 60, 4)
	flat := tree.Flatten()
	if flat.Len() != len(tree.Nodes()) {
		t.Fatalf("flat has %d nodes, tree has %d", flat.Len(), len(tree.Nodes()))
	}
	if flat.Stats() != tree.Stats() {
		t.Fatalf("stats: %+v vs %+v", flat.Stats(), tree.Stats())
	}
	if flat.Bytes() <= 0 {
		t.Error("Bytes <= 0")
	}
	treesEqual(t, tree, flat.Rebuild())
}

func TestFlattenPassesNewFlat(t *testing.T) {
	tree := buildTestTree(t, 45, 3)
	f := tree.Flatten()
	g, err := NewFlat(f.Centroids, f.Parents, f.FirstChild, f.NextSibling, f.Sizes, f.Leaves, f.stats)
	if err != nil {
		t.Fatalf("NewFlat rejected Flatten output: %v", err)
	}
	if !reflect.DeepEqual(f, g) {
		t.Fatal("NewFlat result differs from Flatten output")
	}
}

func TestFlattenAfterInsert(t *testing.T) {
	db, m := randDB(t, 50, 21)
	tree, err := Build(db, m, Options{Branching: 4}, rand.New(rand.NewSource(22)))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// Simulate appended graphs: Insert places new leaves at the end of the
	// node slice (non-preorder), which the flat invariants must still accept.
	for id := 0; id < db.Len(); id += 7 {
		tree.Insert(graph.ID(id%db.Len()), m) // duplicate IDs are fine for structure checks
	}
	f := tree.Flatten()
	if _, err := NewFlat(f.Centroids, f.Parents, f.FirstChild, f.NextSibling, f.Sizes, f.Leaves, f.stats); err != nil {
		t.Fatalf("NewFlat rejected post-insert tree: %v", err)
	}
	treesEqual(t, tree, f.Rebuild())
}

func TestNewFlatRejectsCorruption(t *testing.T) {
	tree := buildTestTree(t, 30, 3)
	base := tree.Flatten()
	mutate := func(fn func(*Flat)) *Flat {
		f := &Flat{
			Centroids:   append([]graph.ID(nil), base.Centroids...),
			Parents:     append([]int32(nil), base.Parents...),
			FirstChild:  append([]int32(nil), base.FirstChild...),
			NextSibling: append([]int32(nil), base.NextSibling...),
			Sizes:       append([]int32(nil), base.Sizes...),
			Leaves:      append([]byte(nil), base.Leaves...),
			stats:       base.stats,
		}
		fn(f)
		return f
	}
	leafIdx := int32(-1)
	for i := range base.Leaves {
		if base.Leaves[i] == 1 {
			leafIdx = int32(i)
			break
		}
	}
	cases := map[string]*Flat{
		"short array":     mutate(func(f *Flat) { f.Sizes = f.Sizes[:len(f.Sizes)-1] }),
		"root has parent": mutate(func(f *Flat) { f.Parents[0] = 2 }),
		"forward parent":  mutate(func(f *Flat) { f.Parents[1] = 1 }),
		"backward child":  mutate(func(f *Flat) { f.FirstChild[0] = 0 }),
		"child oob":       mutate(func(f *Flat) { f.FirstChild[0] = int32(f.Len()) }),
		"sibling oob":     mutate(func(f *Flat) { f.NextSibling[1] = int32(f.Len() + 5) }),
		"leaf with child": mutate(func(f *Flat) { f.FirstChild[leafIdx] = int32(f.Len() - 1) }),
		"leaf flag junk":  mutate(func(f *Flat) { f.Leaves[leafIdx] = 7 }),
		"leaf wrong size": mutate(func(f *Flat) { f.Sizes[leafIdx] = 3 }),
		"size mismatch":   mutate(func(f *Flat) { f.Sizes[0]++ }),
		"orphaned node":   mutate(func(f *Flat) { f.NextSibling[int32(f.FirstChild[0])] = -1; f.Leaves[0] = 0 }),
		"childless inner": mutate(func(f *Flat) { f.Leaves[leafIdx] = 0 }),
		"empty":           {Centroids: nil},
	}
	for name, f := range cases {
		if _, err := NewFlat(f.Centroids, f.Parents, f.FirstChild, f.NextSibling, f.Sizes, f.Leaves, f.stats); err == nil {
			t.Errorf("%s: NewFlat accepted corrupt tree", name)
		}
	}
}

func TestNewFlatRecomputesStats(t *testing.T) {
	tree := buildTestTree(t, 25, 3)
	f := tree.Flatten()
	lied := f.stats
	lied.Nodes = 1
	lied.Leaves = 99
	g, err := NewFlat(f.Centroids, f.Parents, f.FirstChild, f.NextSibling, f.Sizes, f.Leaves, lied)
	if err != nil {
		t.Fatal(err)
	}
	if g.Stats().Nodes != f.Len() || g.Stats().Leaves != tree.Stats().Leaves {
		t.Fatalf("stats not recomputed: %+v", g.Stats())
	}
}
