package nbtree

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"graphrep/internal/graph"
	"graphrep/internal/metric"
)

func buildTestTree(t *testing.T, n int, branching int) *Flat {
	t.Helper()
	db, m := randDB(t, n, 11)
	tree, err := Build(db, m, Options{Branching: branching}, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return tree
}

// deferredCopy assembles a Flat the way the index loader does, over
// cap-clipped copies of f's arrays that stand in for mapped sections.
func deferredCopy(t *testing.T, f *Flat) *Flat {
	t.Helper()
	clip := func(s []int32) []int32 { c := slices.Clone(s); return c[:len(c):len(c)] }
	centroids := slices.Clone(f.Centroids)
	leaves := slices.Clone(f.Leaves)
	g, err := NewFlatDeferred(centroids[:len(centroids):len(centroids)], clip(f.Parents), clip(f.FirstChild),
		clip(f.NextSibling), clip(f.Sizes), leaves[:len(leaves):len(leaves)], f.stats)
	if err != nil {
		t.Fatalf("NewFlatDeferred rejected a built tree: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate rejected a built tree: %v", err)
	}
	return g
}

// TestFlattenPassesNewFlat reassembles a built tree the way the index
// loader does, with NewFlatDeferred over its arrays: the result passes
// Validate and Covers and holds the same tree.
func TestFlattenPassesNewFlat(t *testing.T) {
	built := buildTestTree(t, 45, 3)
	g := deferredCopy(t, built)
	if err := g.Covers(0, 45); err != nil {
		t.Fatalf("Covers rejected a built tree: %v", err)
	}
	g.owned = true
	if !reflect.DeepEqual(g, built) {
		t.Fatal("the reassembled tree differs from the built one")
	}
}

// TestFlattenAfterInsert grows a built tree and a deferred copy of it by the
// same inserts. Appended leaves are not in preorder, which the flat
// invariants must still accept; both trees must end equal, with every
// distance Insert computed counted in the stats, and the arrays the copy was
// assembled over — the stand-ins for a mapping — must never be written.
func TestFlattenAfterInsert(t *testing.T) {
	db, m := randDB(t, 50, 21)
	built, err := Build(db, m, Options{Branching: 4}, rand.New(rand.NewSource(22)))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	views := deferredCopy(t, built)
	viewArrays, want := *views, deferredCopy(t, built)
	before := built.Stats()
	counter := metric.NewCounter(m)
	inserts := 0
	// Duplicate IDs are fine for structure checks.
	for id := 0; id < db.Len(); id += 7 {
		built.Insert(graph.ID(id), counter)
		views.Insert(graph.ID(id), m)
		inserts++
	}
	if err := built.Validate(); err != nil {
		t.Fatalf("Validate rejected the grown tree: %v", err)
	}
	st := built.Stats()
	if st.Nodes != built.Len() || st.Leaves != before.Leaves+inserts || int(built.Sizes[0]) != db.Len()+inserts {
		t.Fatalf("after %d inserts: stats %+v, %d nodes, root size %d", inserts, st, built.Len(), built.Sizes[0])
	}
	if got := st.ExactDistances - before.ExactDistances; got != counter.Count() {
		t.Fatalf("stats count %d insert distances, the metric saw %d", got, counter.Count())
	}
	if !reflect.DeepEqual(views, built) {
		t.Fatal("a deferred tree grown by the same inserts differs from the built one")
	}
	if !reflect.DeepEqual(&viewArrays, want) {
		t.Fatal("Insert wrote into the arrays a deferred tree was assembled over")
	}
}

// TestNewFlatRejectsCorruption corrupts a valid tree one invariant at a
// time. Each case must fail NewFlatDeferred's shape checks, the structural
// walk of Validate, or the coverage check of Covers, in the order the index
// loader runs them.
func TestNewFlatRejectsCorruption(t *testing.T) {
	base := buildTestTree(t, 30, 3)
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
	var leafIdx, leaf2 int32 = -1, -1
	for i := range base.Leaves {
		if base.Leaves[i] == 1 {
			if leafIdx < 0 {
				leafIdx = int32(i)
			} else if leaf2 < 0 {
				leaf2 = int32(i)
			}
		}
	}
	cases := map[string]*Flat{
		"short array":        mutate(func(f *Flat) { f.Sizes = f.Sizes[:len(f.Sizes)-1] }),
		"root has parent":    mutate(func(f *Flat) { f.Parents[0] = 2 }),
		"forward parent":     mutate(func(f *Flat) { f.Parents[1] = 1 }),
		"backward child":     mutate(func(f *Flat) { f.FirstChild[0] = 0 }),
		"child oob":          mutate(func(f *Flat) { f.FirstChild[0] = int32(f.Len()) }),
		"sibling oob":        mutate(func(f *Flat) { f.NextSibling[1] = int32(f.Len() + 5) }),
		"leaf with child":    mutate(func(f *Flat) { f.FirstChild[leafIdx] = int32(f.Len() - 1) }),
		"leaf flag junk":     mutate(func(f *Flat) { f.Leaves[leafIdx] = 7 }),
		"leaf wrong size":    mutate(func(f *Flat) { f.Sizes[leafIdx] = 3 }),
		"size mismatch":      mutate(func(f *Flat) { f.Sizes[0]++ }),
		"orphaned node":      mutate(func(f *Flat) { f.NextSibling[int32(f.FirstChild[0])] = -1; f.Leaves[0] = 0 }),
		"childless inner":    mutate(func(f *Flat) { f.Leaves[leafIdx] = 0 }),
		"centroid oob":       mutate(func(f *Flat) { f.Centroids[0] = 30 }),
		"leaf repeats graph": mutate(func(f *Flat) { f.Centroids[leaf2] = f.Centroids[leafIdx] }),
		"empty":              {Centroids: nil},
	}
	for name, f := range cases {
		g, err := NewFlatDeferred(f.Centroids, f.Parents, f.FirstChild, f.NextSibling, f.Sizes, f.Leaves, f.stats)
		if err == nil {
			err = g.Validate()
		}
		if err == nil {
			err = g.Covers(0, 30)
		}
		if err == nil {
			t.Errorf("%s: a corrupt tree passed every check", name)
		}
	}
}

// TestNewFlatRecomputesStats checks the stats a deferred tree carries: the
// node count comes from the arrays whatever the caller claims, and a false
// leaf count — the persisted claim the loader passes through — fails
// Validate.
func TestNewFlatRecomputesStats(t *testing.T) {
	f := buildTestTree(t, 25, 3)
	lied := f.stats
	lied.Nodes = 1
	g, err := NewFlatDeferred(f.Centroids, f.Parents, f.FirstChild, f.NextSibling, f.Sizes, f.Leaves, lied)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate rejected a true leaf count: %v", err)
	}
	if g.Stats() != f.Stats() {
		t.Fatalf("stats not recomputed: %+v, want %+v", g.Stats(), f.Stats())
	}
	lied.Leaves = 99
	g, err = NewFlatDeferred(f.Centroids, f.Parents, f.FirstChild, f.NextSibling, f.Sizes, f.Leaves, lied)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted a false leaf count")
	}
}
