// Package nbtree implements the NB-Tree of §6.4: a top-down hierarchical
// clustering of the graph database. Disjoint clusters are formed recursively
// — at every level up to b pivots are chosen farthest-first, every graph is
// assigned to its closest pivot, and the process recurses until clusters
// shrink below b. Leaves are single graphs; every non-leaf node stores its
// cluster's centroid (the first pivot) and size. The paper also keeps a
// radius and a diameter per node for the batch updates of Theorems 6–8;
// queries here bound leaves lazily instead (internal/nbindex), so neither
// is computed.
//
// The tree has one form, Flat: parallel arrays in DFS preorder, which the
// builder writes directly, Insert extends in place, the NBIDX004 index
// format stores, and every query walks — over heap arrays or over views of
// a mapped file alike.
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
func Build(db *graph.Database, m metric.Metric, opt Options, rng *rand.Rand) (*Flat, error) {
	return BuildContext(context.Background(), db, m, opt, rng)
}

// BuildContext clusters db into an NB-Tree. rng drives the random first
// pivot at every level; pass a seeded source for reproducible trees.
// Cancellation is checked at every cluster boundary and between distance
// chunks inside a partition; a cancelled build returns ctx.Err() with no
// partial tree.
func BuildContext(ctx context.Context, db *graph.Database, m metric.Metric, opt Options, rng *rand.Rand) (*Flat, error) {
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
func BuildSubsetContext(ctx context.Context, db *graph.Database, m metric.Metric, ids []graph.ID, opt Options, rng *rand.Rand) (*Flat, error) {
	if opt.Branching < 2 {
		return nil, fmt.Errorf("nbtree: branching factor %d < 2", opt.Branching)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("nbtree: empty subset")
	}
	b := &builder{ctx: ctx, db: db, m: m, opt: opt, rng: rng}
	if err := b.build(append([]graph.ID(nil), ids...), -1); err != nil {
		return nil, err
	}
	return &Flat{
		Centroids:   b.centroids,
		Parents:     b.parents,
		FirstChild:  b.firstChild,
		NextSibling: b.nextSibling,
		Sizes:       b.sizes,
		Leaves:      b.leaves,
		owned:       true,
		stats: BuildStats{
			ExactDistances:  b.exact.Load(),
			PrunedDistances: b.pruned.Load(),
			Nodes:           len(b.centroids),
			Leaves:          b.leafCount,
		},
	}, nil
}

// builder clusters recursively and writes each node into the flat arrays
// as it reaches it, which is DFS preorder.
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
	// The tree so far, one entry per node (see Flat). lastChild[i] is the
	// end of node i's child chain, where its next child is linked.
	centroids                                          []graph.ID
	parents, firstChild, nextSibling, sizes, lastChild []int32
	leaves                                             []byte
	leafCount                                          int
}

// dist issues an exact distance computation and counts it.
func (b *builder) dist(a, c graph.ID) float64 {
	b.exact.Add(1)
	return b.m.Distance(a, c)
}

// node appends a node under parent (−1 for the root), last in the parent's
// child chain, and returns its index.
func (b *builder) node(centroid graph.ID, size int, leaf bool, parent int32) int32 {
	i := int32(len(b.centroids))
	b.centroids = append(b.centroids, centroid)
	b.parents = append(b.parents, parent)
	b.firstChild = append(b.firstChild, -1)
	b.nextSibling = append(b.nextSibling, -1)
	b.lastChild = append(b.lastChild, -1)
	b.sizes = append(b.sizes, int32(size))
	flag := byte(0)
	if leaf {
		flag = 1
		b.leafCount++
	}
	b.leaves = append(b.leaves, flag)
	if parent >= 0 {
		if prev := b.lastChild[parent]; prev == -1 {
			b.firstChild[parent] = i
		} else {
			b.nextSibling[prev] = i
		}
		b.lastChild[parent] = i
	}
	return i
}

// partitionChunk sizes the parallel distance fills: clusters at or below it
// run inline, so the deep, small tail of the recursion pays no goroutine
// overhead.
const partitionChunk = 32

// build clusters ids into a node under parent. len(ids) ≥ 1.
func (b *builder) build(ids []graph.ID, parent int32) error {
	if err := b.ctx.Err(); err != nil {
		return err
	}
	if len(ids) == 1 {
		b.node(ids[0], 1, true, parent)
		return nil
	}
	pivots, assign, err := b.partition(ids)
	if err != nil {
		return err
	}
	n := b.node(pivots[0], len(ids), false, parent)
	if len(pivots) == 1 {
		// Degenerate cluster: every member coincides with the pivot
		// (distance 0). Recursing would not shrink the cluster, so emit the
		// members directly as leaves.
		for _, id := range ids {
			b.node(id, 1, true, n)
		}
		return nil
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
		if err := b.build(sub, n); err != nil {
			return err
		}
	}
	return nil
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
