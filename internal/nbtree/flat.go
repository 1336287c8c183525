package nbtree

import (
	"fmt"

	"graphrep/internal/graph"
)

// Flat is the NB-Tree as parallel arrays indexed by node index — the
// representation the v4 index format stores and the query path navigates.
// First-child/next-sibling links replace child pointer slices; both links
// point strictly forward (children always have larger indices than their
// parent, for preorder-built and insert-appended trees alike), so every walk
// terminates. A Flat built over mapped sections serves queries directly from
// the mapping; one built by Flatten aliases nothing.
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
	stats       BuildStats
}

// Flatten converts the pointer tree into its array form. The result passes
// NewFlat validation and shares no memory with the tree.
func (t *Tree) Flatten() *Flat {
	n := len(t.nodes)
	f := &Flat{
		Centroids:   make([]graph.ID, n),
		Parents:     make([]int32, n),
		FirstChild:  make([]int32, n),
		NextSibling: make([]int32, n),
		Sizes:       make([]int32, n),
		Leaves:      make([]byte, n),
		stats:       t.stats,
	}
	// Links default to -1 up front: parents have smaller indices than their
	// children, so setting the default inside the main loop would clobber
	// sibling links the parent's iteration already wrote.
	for i := range f.FirstChild {
		f.FirstChild[i] = -1
		f.NextSibling[i] = -1
	}
	for i, nd := range t.nodes {
		f.Centroids[i] = nd.Centroid
		f.Sizes[i] = int32(nd.Size)
		if nd.Leaf {
			f.Leaves[i] = 1
		}
		if nd.Parent != nil {
			f.Parents[i] = int32(nd.Parent.Idx)
		} else {
			f.Parents[i] = -1
		}
		if len(nd.Children) > 0 {
			f.FirstChild[i] = int32(nd.Children[0].Idx)
			for j := 0; j+1 < len(nd.Children); j++ {
				f.NextSibling[nd.Children[j].Idx] = int32(nd.Children[j+1].Idx)
			}
		}
	}
	return f
}

// NewFlat assembles a Flat from its component arrays (typically zero-copy
// views over a v4 index section) after validating every structural invariant
// a query walk relies on: equal lengths, a single root at index 0, parent
// links that point strictly backward, child/sibling links that point strictly
// forward to nodes with the right parent, every non-root node appearing in
// exactly one child chain, leaf flags consistent with fan-out, and sizes that
// sum bottom-up. Centroid range checks are the caller's job (the valid ID
// range is not known here). stats.Nodes and stats.Leaves are recomputed, not
// trusted. The arrays are retained, not copied.
func NewFlat(centroids []graph.ID, parents, firstChild, nextSibling, sizes []int32, leaves []byte, stats BuildStats) (*Flat, error) {
	leafCount := 0
	for _, l := range leaves {
		if l == 1 {
			leafCount++
		}
	}
	stats.Leaves = leafCount
	f, err := NewFlatDeferred(centroids, parents, firstChild, nextSibling, sizes, leaves, stats)
	if err != nil {
		return nil, err
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// NewFlatDeferred is NewFlat minus the O(n) structural walk: it checks only
// the array lengths and the root's parent, records stats (whose Leaves field
// is the caller's claim, e.g. from persisted metadata), and defers Validate
// to the caller. The tree must not be navigated until Validate — which also
// checks the claimed leaf count — has passed.
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

// Rebuild reconstructs the pointer tree. Children are appended in ascending
// node index, which reproduces the original child order for both
// preorder-built trees and trees grown by Insert (appended leaves always get
// the largest index). Used to thaw a mapped tree before mutation.
func (f *Flat) Rebuild() *Tree {
	n := f.Len()
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = &Node{
			Idx:      i,
			Centroid: f.Centroids[i],
			Size:     int(f.Sizes[i]),
			Leaf:     f.Leaves[i] == 1,
		}
	}
	for i := 0; i < n; i++ {
		if p := f.Parents[i]; p != -1 {
			parent := nodes[p]
			nodes[i].Parent = parent
			parent.Children = append(parent.Children, nodes[i])
		}
	}
	return &Tree{root: nodes[0], nodes: nodes, stats: f.stats}
}
