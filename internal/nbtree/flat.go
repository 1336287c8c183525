package nbtree

import (
	"fmt"
	"slices"

	"graphrep/internal/bitset"
	"graphrep/internal/graph"
	"graphrep/internal/metric"
)

// Flat is the NB-Tree as parallel arrays indexed by node index: the one
// form of the tree, which the builder writes, Insert extends, the v4 index
// format stores and every query navigates. First-child/next-sibling links
// replace child pointer slices; both links point strictly forward (children
// always have larger indices than their parent, for preorder-built and
// insert-appended trees alike), so every walk terminates, and each child
// chain runs in ascending index order. A Flat assembled over mapped
// sections (NewFlatDeferred) serves queries directly from the mapping; one
// built by Build aliases nothing.
//
// All slices have identical length. Leaves[i] is 1 for single-graph leaves,
// 0 otherwise; FirstChild/NextSibling/Parents use -1 for "none".
type Flat struct {
	Centroids   []graph.ID
	Parents     []int32
	FirstChild  []int32
	NextSibling []int32
	Sizes       []int32
	Leaves      []byte
	// owned reports that the arrays are heap memory this tree may write:
	// true when Build made them, false for caller-provided views until the
	// first Insert copies them.
	owned bool
	stats BuildStats
}

// NewFlatDeferred assembles a Flat from its component arrays, typically
// zero-copy views over a v4 index section. It checks only the array lengths
// and the root's parent, records stats (whose Leaves field is the caller's
// claim, e.g. from persisted metadata; Nodes is the array length), and
// defers the O(n) structural walk to Validate. The tree must not be
// navigated until Validate — which also checks the claimed leaf count — has
// passed. The arrays are retained, not copied; Insert copies them before
// its first write. Centroid range checks are Covers' job (the valid ID
// range is not known here).
func NewFlatDeferred(centroids []graph.ID, parents, firstChild, nextSibling, sizes []int32, leaves []byte, stats BuildStats) (*Flat, error) {
	n := len(centroids)
	if n == 0 {
		return nil, fmt.Errorf("nbtree: flat tree has no nodes")
	}
	if len(parents) != n || len(firstChild) != n || len(nextSibling) != n || len(sizes) != n || len(leaves) != n {
		return nil, fmt.Errorf("nbtree: flat tree arrays disagree on length (%d/%d/%d/%d/%d/%d)",
			n, len(parents), len(firstChild), len(nextSibling), len(sizes), len(leaves))
	}
	if parents[0] != -1 {
		return nil, fmt.Errorf("nbtree: root parent is %d, want -1", parents[0])
	}
	stats.Nodes = n
	return &Flat{
		Centroids:   centroids,
		Parents:     parents,
		FirstChild:  firstChild,
		NextSibling: nextSibling,
		Sizes:       sizes,
		Leaves:      leaves,
		stats:       stats,
	}, nil
}

// Validate runs the O(n) structural walk a deferred construction skipped:
// parent/child/sibling links in range and acyclic (strictly forward), leaf
// flags boolean and consistent with the links, every non-root node in
// exactly one child chain under its recorded parent, sizes summing
// bottom-up, and the claimed leaf count matching the actual one. After
// Validate succeeds, every navigation a query performs stays in bounds.
func (f *Flat) Validate() error {
	n := len(f.Centroids)
	parents, firstChild, nextSibling := f.Parents, f.FirstChild, f.NextSibling
	sizes, leaves := f.Sizes, f.Leaves
	leafCount := 0
	for i := 0; i < n; i++ {
		if i > 0 && (parents[i] < 0 || int(parents[i]) >= i) {
			return fmt.Errorf("nbtree: node %d has parent %d (must be in [0,%d))", i, parents[i], i)
		}
		switch leaves[i] {
		case 0:
			if firstChild[i] == -1 {
				return fmt.Errorf("nbtree: non-leaf node %d has no children", i)
			}
		case 1:
			leafCount++
			if firstChild[i] != -1 {
				return fmt.Errorf("nbtree: leaf node %d has a child", i)
			}
			if sizes[i] != 1 {
				return fmt.Errorf("nbtree: leaf node %d has size %d", i, sizes[i])
			}
		default:
			return fmt.Errorf("nbtree: node %d has leaf flag %d", i, leaves[i])
		}
		if c := firstChild[i]; c != -1 && (int(c) <= i || int(c) >= n) {
			return fmt.Errorf("nbtree: node %d first child %d out of range (%d,%d)", i, c, i, n)
		}
		if s := nextSibling[i]; s != -1 && (int(s) <= i || int(s) >= n) {
			return fmt.Errorf("nbtree: node %d next sibling %d out of range (%d,%d)", i, s, i, n)
		}
	}
	if leafCount != f.stats.Leaves {
		return fmt.Errorf("nbtree: flat tree has %d leaves, metadata claims %d", leafCount, f.stats.Leaves)
	}
	// Every non-root node must appear in exactly one child chain, under its
	// recorded parent, and sizes must sum bottom-up. Chains move strictly
	// forward (checked above), so each walk terminates.
	inChain := make([]bool, n)
	for i := 0; i < n; i++ {
		sum := int32(0)
		for c := firstChild[i]; c != -1; c = nextSibling[c] {
			if parents[c] != int32(i) {
				return fmt.Errorf("nbtree: node %d is in the child chain of %d but has parent %d", c, i, parents[c])
			}
			if inChain[c] {
				return fmt.Errorf("nbtree: node %d appears in two child chains", c)
			}
			inChain[c] = true
			sum += sizes[c]
		}
		if leaves[i] == 0 && sum != sizes[i] {
			return fmt.Errorf("nbtree: node %d has size %d but children sum to %d", i, sizes[i], sum)
		}
	}
	for i := 1; i < n; i++ {
		if !inChain[i] {
			return fmt.Errorf("nbtree: node %d is in no child chain", i)
		}
	}
	return nil
}

// Covers checks that the tree holds exactly the graphs [base, base+count):
// every centroid lies in that range, and there are count leaves holding
// distinct graphs, so each graph of the range sits under exactly one leaf.
// Run it after Validate on a tree whose arrays came from outside.
func (f *Flat) Covers(base graph.ID, count int) error {
	inLeaf := bitset.New(count)
	leaves := 0
	for i, c := range f.Centroids {
		if c < base || int(c-base) >= count {
			return fmt.Errorf("nbtree: node %d centroid %d outside covered range [%d, %d)", i, c, base, int(base)+count)
		}
		if f.Leaves[i] != 1 {
			continue
		}
		if inLeaf.Contains(int(c - base)) {
			return fmt.Errorf("nbtree: leaf node %d repeats graph %d", i, c)
		}
		inLeaf.Add(int(c - base))
		leaves++
	}
	if leaves != count {
		return fmt.Errorf("nbtree: tree has %d leaves for %d graphs", leaves, count)
	}
	return nil
}

// Insert adds a newly appended database graph to the tree: it descends to
// the closest leaf-level cluster, appends a new leaf there, and grows the
// sizes along the path. At each level it computes the distance from id to
// every non-leaf child's centroid, in child-chain order, and counts each in
// Stats().ExactDistances. Fan-out may temporarily exceed the build-time
// branching factor; rebuild periodically if insert volume is high. Arrays
// that are views (NewFlatDeferred) are copied onto the heap before the
// first write, so a mapping is never written. Not safe concurrently with
// reads.
func (f *Flat) Insert(id graph.ID, m metric.Metric) {
	if !f.owned {
		f.Centroids = slices.Clone(f.Centroids)
		f.Parents = slices.Clone(f.Parents)
		f.FirstChild = slices.Clone(f.FirstChild)
		f.NextSibling = slices.Clone(f.NextSibling)
		f.Sizes = slices.Clone(f.Sizes)
		f.Leaves = slices.Clone(f.Leaves)
		f.owned = true
	}
	if f.Leaves[0] == 1 {
		// Single-graph tree: grow a root cluster over both.
		old := f.Centroids[0]
		f.Centroids = []graph.ID{old, old, id}
		f.Parents = []int32{-1, 0, 0}
		f.FirstChild = []int32{1, -1, -1}
		f.NextSibling = []int32{-1, 2, -1}
		f.Sizes = []int32{2, 1, 1}
		f.Leaves = []byte{0, 1, 1}
		f.stats.Nodes = 3
		f.stats.Leaves++
		return
	}
	n := int32(0)
	for {
		f.Sizes[n]++
		// Stop at a node whose children are leaves; otherwise descend into
		// the child cluster with the closest centroid.
		best, bestD, last := int32(-1), 0.0, int32(-1)
		for c := f.FirstChild[n]; c != -1; c = f.NextSibling[c] {
			last = c
			if f.Leaves[c] == 1 {
				continue
			}
			dc := m.Distance(f.Centroids[c], id)
			f.stats.ExactDistances++
			if best == -1 || dc < bestD {
				best, bestD = c, dc
			}
		}
		if best == -1 {
			leaf := int32(len(f.Centroids))
			f.Centroids = append(f.Centroids, id)
			f.Parents = append(f.Parents, n)
			f.FirstChild = append(f.FirstChild, -1)
			f.NextSibling = append(f.NextSibling, -1)
			f.Sizes = append(f.Sizes, 1)
			f.Leaves = append(f.Leaves, 1)
			f.NextSibling[last] = leaf
			f.stats.Nodes++
			f.stats.Leaves++
			return
		}
		n = best
	}
}

// Len returns the number of nodes.
func (f *Flat) Len() int { return len(f.Centroids) }

// Leaf reports whether node i is a single-graph leaf.
func (f *Flat) Leaf(i int32) bool { return f.Leaves[i] == 1 }

// Stats returns the construction statistics carried with the tree.
func (f *Flat) Stats() BuildStats { return f.stats }

// Bytes approximates the memory footprint of the flat arrays.
func (f *Flat) Bytes() int64 {
	n := int64(f.Len())
	return n * (4 + 4 + 4 + 4 + 4 + 1)
}
