// Package nbtree implements the NB-Tree of §6.4: a top-down hierarchical
// clustering of the graph database. Disjoint clusters are formed recursively
// — at every level up to b pivots are chosen farthest-first, every graph is
// assigned to its closest pivot, and the process recurses until clusters
// shrink below b. Leaves are single graphs; every non-leaf node stores the
// centroid, radius, and diameter of its cluster, the quantities the paper's
// Theorems 6–8 use for batch updates of representative power. Queries here
// bound leaves lazily instead (internal/nbindex) and read neither radius
// nor diameter.
//
// Construction can be accelerated with vantage orderings: the vantage lower
// bound discards pivot/graph pairs that cannot improve the current closest
// pivot, so exact distances are computed for only a small minority of pairs
// (the "<1% of candidate pairs" effect behind Fig. 6(k)).
package nbtree

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"

	"graphrep/internal/graph"
	"graphrep/internal/metric"
	"graphrep/internal/pool"
	"graphrep/internal/vantage"
)

// Options configures tree construction.
type Options struct {
	// Branching is the maximum fan-out b (≥ 2). The paper uses 40 on disk
	// and recommends small b for memory-resident trees.
	Branching int
	// VO optionally supplies vantage orderings for construction pruning.
	VO *vantage.Ordering
	// Workers bounds the goroutines used for the partition distance fills
	// (≤ 0 means GOMAXPROCS). Pivot selection stays single-threaded on the
	// rng, and every parallel fill writes to pre-assigned slots, so the tree
	// is identical for any worker count.
	Workers int
}

// Node is one cluster in the NB-Tree. Leaves represent single graphs
// (Radius = Diameter = 0, Centroid = the graph itself).
type Node struct {
	// Idx is the node's position in Tree.Nodes(), assigned in DFS preorder.
	// Query-time state (leaf bounds) is kept in arrays indexed by Idx.
	Idx      int
	Centroid graph.ID
	Radius   float64
	Diameter float64
	Children []*Node
	Parent   *Node
	// Size is the number of graphs in the subtree.
	Size int
	// Leaf marks single-graph nodes; for those Centroid is the graph.
	Leaf bool
}

// Tree is an immutable NB-Tree over a database.
type Tree struct {
	root  *Node
	nodes []*Node
	stats BuildStats
}

// BuildStats reports how much work construction did.
type BuildStats struct {
	// ExactDistances is the number of exact distance computations issued.
	ExactDistances int64
	// PrunedDistances counts pivot/graph pairs discarded by the vantage
	// lower bound without an exact computation.
	PrunedDistances int64
	// Nodes and Leaves count tree nodes.
	Nodes, Leaves int
}

// Build clusters db into an NB-Tree with no cancellation. See BuildContext.
func Build(db *graph.Database, m metric.Metric, opt Options, rng *rand.Rand) (*Tree, error) {
	return BuildContext(context.Background(), db, m, opt, rng)
}

// BuildContext clusters db into an NB-Tree. rng drives the random first
// pivot at every level; pass a seeded source for reproducible trees.
// Cancellation is checked at every cluster boundary and between distance
// chunks inside a partition; a cancelled build returns ctx.Err() with no
// partial tree.
func BuildContext(ctx context.Context, db *graph.Database, m metric.Metric, opt Options, rng *rand.Rand) (*Tree, error) {
	if db.Len() == 0 {
		return nil, fmt.Errorf("nbtree: empty database")
	}
	ids := make([]graph.ID, db.Len())
	for i := range ids {
		ids[i] = graph.ID(i)
	}
	return BuildSubsetContext(ctx, db, m, ids, opt, rng)
}

// BuildSubsetContext clusters an arbitrary subset of db's graphs into an
// NB-Tree — a shard's contiguous ID range, say. The clustering machinery is
// identical to BuildContext (which is the full-subset special case); opt.VO
// only needs to cover the subset's IDs. The ids slice is not retained.
func BuildSubsetContext(ctx context.Context, db *graph.Database, m metric.Metric, ids []graph.ID, opt Options, rng *rand.Rand) (*Tree, error) {
	if opt.Branching < 2 {
		return nil, fmt.Errorf("nbtree: branching factor %d < 2", opt.Branching)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("nbtree: empty subset")
	}
	b := &builder{ctx: ctx, db: db, m: m, opt: opt, rng: rng}
	root, err := b.build(append([]graph.ID(nil), ids...))
	if err != nil {
		return nil, err
	}
	t := &Tree{root: root, stats: b.snapshotStats()}
	t.index(root, nil)
	t.stats.Nodes = len(t.nodes)
	for _, n := range t.nodes {
		if n.Leaf {
			t.stats.Leaves++
		}
	}
	return t, nil
}

// Root returns the root cluster (the whole database).
func (t *Tree) Root() *Node { return t.root }

// Nodes returns all nodes in DFS preorder; Node.Idx indexes this slice.
func (t *Tree) Nodes() []*Node { return t.nodes }

// Stats returns construction statistics.
func (t *Tree) Stats() BuildStats { return t.stats }

// Height returns the height of the tree (a single leaf has height 0).
func (t *Tree) Height() int { return height(t.root) }

func height(n *Node) int {
	h := 0
	for _, c := range n.Children {
		if ch := height(c) + 1; ch > h {
			h = ch
		}
	}
	return h
}

// Bytes approximates the memory footprint of the tree structure (the
// NB-Tree component of the paper's storage cost analysis).
func (t *Tree) Bytes() int64 {
	// Node: idx + centroid + radius + diameter + size + leaf + child/parent
	// pointers.
	var bytes int64
	for _, n := range t.nodes {
		bytes += 64 + int64(len(n.Children))*8
	}
	return bytes
}

// VisitGraphs calls fn for every graph in n's subtree.
func (n *Node) VisitGraphs(fn func(graph.ID)) {
	if n.Leaf {
		fn(n.Centroid)
		return
	}
	for _, c := range n.Children {
		c.VisitGraphs(fn)
	}
}

// Graphs returns the graphs in n's subtree.
func (n *Node) Graphs() []graph.ID {
	out := make([]graph.ID, 0, n.Size)
	n.VisitGraphs(func(id graph.ID) { out = append(out, id) })
	return out
}

func (t *Tree) index(n *Node, parent *Node) {
	n.Idx = len(t.nodes)
	n.Parent = parent
	t.nodes = append(t.nodes, n)
	for _, c := range n.Children {
		t.index(c, n)
	}
}

type builder struct {
	ctx context.Context
	db  *graph.Database
	m   metric.Metric
	opt Options
	rng *rand.Rand
	// exact and pruned are atomic because partition's distance fills run on
	// a worker pool; the pruning decisions themselves depend only on state
	// each index owns, so both totals are deterministic for any worker count.
	exact, pruned atomic.Int64
}

func (b *builder) snapshotStats() BuildStats {
	return BuildStats{ExactDistances: b.exact.Load(), PrunedDistances: b.pruned.Load()}
}

// dist issues an exact distance computation and counts it.
func (b *builder) dist(a, c graph.ID) float64 {
	b.exact.Add(1)
	return b.m.Distance(a, c)
}

// partitionChunk sizes the parallel distance fills: clusters at or below it
// run inline, so the deep, small tail of the recursion pays no goroutine
// overhead.
const partitionChunk = 32

// build clusters ids into a node. len(ids) ≥ 1.
func (b *builder) build(ids []graph.ID) (*Node, error) {
	if err := b.ctx.Err(); err != nil {
		return nil, err
	}
	if len(ids) == 1 {
		return &Node{Centroid: ids[0], Size: 1, Leaf: true}, nil
	}
	pivots, assign, err := b.partition(ids)
	if err != nil {
		return nil, err
	}
	node := &Node{Size: len(ids), Centroid: pivots[0]}
	// Radius: the running maximum of (upper bounds on) member distances to
	// the centroid; Diameter: sum of the two largest (§6.4). Both are sound
	// upper bounds even when the vantage pruning skips exact computations.
	// This loop stays sequential: the pruning threshold is the running
	// maximum, a recurrence whose prune-or-compute outcomes feed the encoded
	// radius/diameter values, so reordering it would change the tree bytes.
	var largest, second float64
	for _, id := range ids {
		dc := b.centroidDistance(node.Centroid, id, largest)
		if dc > largest {
			largest, second = dc, largest
		} else if dc > second {
			second = dc
		}
	}
	node.Radius = largest
	node.Diameter = largest + second
	if len(pivots) == 1 {
		// Degenerate cluster: every member coincides with the pivot
		// (distance 0). Recursing would not shrink the cluster, so emit the
		// members directly as leaves.
		for _, id := range ids {
			node.Children = append(node.Children, &Node{Centroid: id, Size: 1, Leaf: true})
		}
		return node, nil
	}
	for p := range pivots {
		var sub []graph.ID
		for i, id := range ids {
			if assign[i] == p {
				sub = append(sub, id)
			}
		}
		if len(sub) == 0 {
			continue
		}
		child, err := b.build(sub)
		if err != nil {
			return nil, err
		}
		node.Children = append(node.Children, child)
	}
	return node, nil
}

// centroidDistance returns d(centroid, id), skipping the exact computation
// when the vantage upper bound shows the distance cannot exceed the current
// largest (it then returns that upper bound, which is sound for radius and
// diameter maintenance because it only ever under-reports skipped members
// relative to the running maximum).
func (b *builder) centroidDistance(centroid, id graph.ID, currentLargest float64) float64 {
	if id == centroid {
		return 0
	}
	if b.opt.VO != nil {
		if ub := b.opt.VO.UpperBound(centroid, id); ub <= currentLargest {
			b.pruned.Add(1)
			return ub
		}
	}
	return b.dist(centroid, id)
}

// partition chooses up to b pivots farthest-first and assigns every id to
// its closest pivot. It returns the pivots and the assignment (an index into
// pivots for every id).
//
// Only the rng-driven first-pivot draw and the farthest-first argmax scans
// are sequential; the distance fills fan out over index ranges. Each index i
// is touched by exactly one worker per round and its prune/compute decision
// reads only minDist[i] from the previous round, so pivots, assignments, and
// both stats totals are identical for any worker count.
func (b *builder) partition(ids []graph.ID) (pivots []graph.ID, assign []int, err error) {
	k := b.opt.Branching
	if k > len(ids) {
		k = len(ids)
	}
	first := ids[b.rng.Intn(len(ids))]
	pivots = []graph.ID{first}
	assign = make([]int, len(ids))
	minDist := make([]float64, len(ids))
	err = pool.Ranges(b.ctx, len(ids), b.opt.Workers, partitionChunk, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			minDist[i] = b.dist(first, ids[i])
		}
	})
	if err != nil {
		return nil, nil, err
	}
	for len(pivots) < k {
		// Farthest-first: the next pivot maximizes distance to the closest
		// already-chosen pivot.
		best, bestD := -1, -1.0
		for i := range ids {
			if minDist[i] > bestD {
				best, bestD = i, minDist[i]
			}
		}
		if bestD == 0 {
			break // all remaining graphs coincide with a pivot
		}
		p := ids[best]
		pIdx := len(pivots)
		pivots = append(pivots, p)
		err = pool.Ranges(b.ctx, len(ids), b.opt.Workers, partitionChunk, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if minDist[i] == 0 {
					continue
				}
				// Vantage pruning: if even the lower bound cannot beat the
				// current closest pivot, skip the exact computation.
				if b.opt.VO != nil && b.opt.VO.LowerBound(p, ids[i]) >= minDist[i] {
					b.pruned.Add(1)
					continue
				}
				if d := b.dist(p, ids[i]); d < minDist[i] {
					minDist[i] = d
					assign[i] = pIdx
				}
			}
		})
		if err != nil {
			return nil, nil, err
		}
	}
	return pivots, assign, nil
}

// Insert adds a newly appended database graph to the tree: it descends to
// the closest leaf-level cluster, appends a new leaf there, and maintains
// sound (possibly loosened) radius and diameter upper bounds along the
// path. Fan-out may temporarily exceed the build-time branching factor;
// rebuild periodically if insert volume is high. Not safe concurrently with
// reads.
func (t *Tree) Insert(id graph.ID, m metric.Metric) {
	n := t.root
	if n.Leaf {
		// Single-graph tree: grow a root cluster over both.
		old := n
		d := m.Distance(old.Centroid, id)
		newRoot := &Node{
			Centroid: old.Centroid,
			Radius:   d,
			Diameter: d,
			Size:     2,
		}
		oldLeaf := &Node{Centroid: old.Centroid, Size: 1, Leaf: true, Parent: newRoot}
		newLeaf := &Node{Centroid: id, Size: 1, Leaf: true, Parent: newRoot}
		newRoot.Children = []*Node{oldLeaf, newLeaf}
		t.root = newRoot
		t.nodes = nil
		t.index(newRoot, nil)
		t.stats.Nodes = len(t.nodes)
		t.stats.Leaves++
		return
	}
	for {
		d := m.Distance(n.Centroid, id)
		t.stats.ExactDistances++
		// Diameter first: new pairs are bounded by d + old radius.
		if ub := d + n.Radius; ub > n.Diameter {
			n.Diameter = ub
		}
		if d > n.Radius {
			n.Radius = d
		}
		n.Size++
		// Stop at a node whose children are leaves; otherwise descend into
		// the child cluster with the closest centroid.
		allLeaves := true
		var best *Node
		bestD := 0.0
		for _, c := range n.Children {
			if !c.Leaf {
				allLeaves = false
				dc := m.Distance(c.Centroid, id)
				t.stats.ExactDistances++
				if best == nil || dc < bestD {
					best, bestD = c, dc
				}
			}
		}
		if allLeaves || best == nil {
			leaf := &Node{Idx: len(t.nodes), Centroid: id, Size: 1, Leaf: true, Parent: n}
			n.Children = append(n.Children, leaf)
			t.nodes = append(t.nodes, leaf)
			t.stats.Nodes++
			t.stats.Leaves++
			return
		}
		n = best
	}
}

// Validate checks the structural invariants of the tree under metric m:
// every graph appears exactly once; every member of a cluster lies within
// Radius of the centroid; Diameter bounds every pairwise member distance;
// Size fields are consistent. Intended for tests; cost is O(n²) distances in
// the worst case, so call it on small trees.
func (t *Tree) Validate(db *graph.Database, m metric.Metric) error {
	seen := make(map[graph.ID]int)
	t.root.VisitGraphs(func(id graph.ID) { seen[id]++ })
	if len(seen) != db.Len() {
		return fmt.Errorf("nbtree: tree covers %d graphs, database has %d", len(seen), db.Len())
	}
	for id, c := range seen {
		if c != 1 {
			return fmt.Errorf("nbtree: graph %d appears %d times", id, c)
		}
	}
	for _, n := range t.nodes {
		if n.Leaf {
			if n.Size != 1 || len(n.Children) != 0 || n.Radius != 0 || n.Diameter != 0 {
				return fmt.Errorf("nbtree: malformed leaf %d", n.Idx)
			}
			continue
		}
		size := 0
		for _, c := range n.Children {
			size += c.Size
			if c.Parent != n {
				return fmt.Errorf("nbtree: node %d has wrong parent link", c.Idx)
			}
		}
		if size != n.Size {
			return fmt.Errorf("nbtree: node %d size %d != children sum %d", n.Idx, n.Size, size)
		}
		members := n.Graphs()
		for _, id := range members {
			if d := m.Distance(n.Centroid, id); d > n.Radius+1e-9 {
				return fmt.Errorf("nbtree: node %d: member %d at %v exceeds radius %v", n.Idx, id, d, n.Radius)
			}
		}
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				if d := m.Distance(members[i], members[j]); d > n.Diameter+1e-9 {
					return fmt.Errorf("nbtree: node %d: pair (%d,%d) at %v exceeds diameter %v",
						n.Idx, members[i], members[j], d, n.Diameter)
				}
			}
		}
	}
	return nil
}
