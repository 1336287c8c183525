// Package vantage implements vantage orderings (Definitions 3–4 of the
// paper): a Lipschitz embedding of the graph metric space into |V| one-
// dimensional "vantage spaces", one per vantage point. The embedding yields
//
//   - a lower bound on d(a,b): the vantage distance max_v |d(v,a) − d(v,b)|
//     (Theorem 4), and
//   - an upper bound on d(a,b): min_v (d(v,a) + d(v,b)),
//
// from which the candidate neighborhood N̂(g) ⊇ N_θ(g) of Theorem 5 is
// computed with |V| array scans and zero edit-distance computations.
package vantage

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"graphrep/internal/graph"
	"graphrep/internal/metric"
	"graphrep/internal/pool"
)

// SelectionPolicy chooses how vantage points are picked.
type SelectionPolicy int

const (
	// SelectRandom picks vantage points uniformly at random (the paper's
	// default; its FPR analysis assumes random VPs).
	SelectRandom SelectionPolicy = iota
	// SelectMaxMin picks the first VP at random and each subsequent VP as
	// the graph maximizing the minimum distance to those already chosen
	// (farthest-point sampling). Costs |V|·|D| extra distance computations
	// but spreads the VPs, tightening the embedding.
	SelectMaxMin
)

// Ordering holds the vantage orderings of one contiguous ID range of a
// database: for every vantage point, the distance from that VP to every
// graph in the range, plus the 1-D orderings used for range scans. A
// full-database ordering is simply the range [0, n); a shard's ordering
// covers [base, base+count) while sharing the global vantage point set, so
// the embedding coordinates of any graph are valid against any shard's
// sorted views. Ordering is immutable after Build and safe for concurrent
// use.
type Ordering struct {
	vps []graph.ID
	// base is the first graph ID covered; dist rows are indexed by id-base.
	base graph.ID
	dist [][]float64 // dist[v][g-base] = d(vps[v], g)
	// byDist[v] lists (global) graph IDs sorted by dist[v][·]; sortedD[v]
	// carries the matching sorted distances for binary search.
	byDist  [][]graph.ID
	sortedD [][]float64
}

// SelectVPs chooses numVPs vantage points from db under policy.
func SelectVPs(db *graph.Database, m metric.Metric, numVPs int, policy SelectionPolicy, rng *rand.Rand) ([]graph.ID, error) {
	n := db.Len()
	if numVPs <= 0 || numVPs > n {
		return nil, fmt.Errorf("vantage: numVPs=%d out of range for %d graphs", numVPs, n)
	}
	switch policy {
	case SelectRandom:
		perm := rng.Perm(n)
		vps := make([]graph.ID, numVPs)
		for i := range vps {
			vps[i] = graph.ID(perm[i])
		}
		return vps, nil
	case SelectMaxMin:
		vps := []graph.ID{graph.ID(rng.Intn(n))}
		minDist := make([]float64, n)
		for i := range minDist {
			minDist[i] = m.Distance(vps[0], graph.ID(i))
		}
		for len(vps) < numVPs {
			best, bestD := graph.ID(-1), -1.0
			for i := 0; i < n; i++ {
				if minDist[i] > bestD {
					best, bestD = graph.ID(i), minDist[i]
				}
			}
			vps = append(vps, best)
			for i := 0; i < n; i++ {
				if d := m.Distance(best, graph.ID(i)); d < minDist[i] {
					minDist[i] = d
				}
			}
		}
		return vps, nil
	default:
		return nil, fmt.Errorf("vantage: unknown policy %d", policy)
	}
}

// Build computes the vantage orderings of db for the given vantage points
// with the default worker count and no cancellation. See BuildContext.
func Build(db *graph.Database, m metric.Metric, vps []graph.ID) (*Ordering, error) {
	return BuildContext(context.Background(), db, m, vps, 0)
}

// BuildContext computes the vantage orderings of db for the given vantage
// points. It issues exactly len(vps)·|D| distance computations. The |V|×n
// matrix fill is chunked over pre-partitioned index ranges and spread across
// up to workers goroutines (≤ 0 means GOMAXPROCS; the metric must be safe
// for concurrent use, which every metric in this module is); every cell has
// a fixed owner, so the ordering is identical for any worker count.
// Cancellation is observed between chunks: on a cancelled context the
// partial ordering is discarded and ctx.Err() returned.
func BuildContext(ctx context.Context, db *graph.Database, m metric.Metric, vps []graph.ID, workers int) (*Ordering, error) {
	return BuildRangeContext(ctx, db, m, vps, 0, db.Len(), workers)
}

// BuildRangeContext computes the vantage orderings of the contiguous ID
// range [base, base+count) of db. The vantage points themselves may lie
// anywhere in the database — shards share one global VP set, which is what
// keeps a graph's embedding coordinates comparable across every shard's
// orderings. It issues exactly len(vps)·count distance computations; see
// BuildContext for the parallelism and determinism contract.
func BuildRangeContext(ctx context.Context, db *graph.Database, m metric.Metric, vps []graph.ID, base graph.ID, count, workers int) (*Ordering, error) {
	if len(vps) == 0 {
		return nil, fmt.Errorf("vantage: no vantage points")
	}
	n := db.Len()
	if int(base) < 0 || count <= 0 || int(base)+count > n {
		return nil, fmt.Errorf("vantage: range [%d, %d) out of bounds for %d graphs", base, int(base)+count, n)
	}
	o := &Ordering{
		vps:     append([]graph.ID(nil), vps...),
		base:    base,
		dist:    make([][]float64, len(vps)),
		byDist:  make([][]graph.ID, len(vps)),
		sortedD: make([][]float64, len(vps)),
	}
	for _, vp := range o.vps {
		if int(vp) < 0 || int(vp) >= n {
			return nil, fmt.Errorf("vantage: vp %d out of range", vp)
		}
	}
	for v := range o.vps {
		o.dist[v] = make([]float64, count)
	}
	// Phase 1: the distance-matrix fill, flattened to |V|·count cells so the
	// pool balances work even when |V| is far below the worker count.
	if err := pool.Ranges(ctx, len(o.vps)*count, workers, 512, func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			v, i := idx/count, idx%count
			o.dist[v][i] = m.Distance(o.vps[v], base+graph.ID(i))
		}
	}); err != nil {
		return nil, err
	}
	// Phase 2: per-VP sorted views, one row per task.
	if err := pool.Ranges(ctx, len(o.vps), workers, 1, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			row := o.dist[v]
			ids := make([]graph.ID, count)
			for i := range ids {
				ids[i] = base + graph.ID(i)
			}
			sort.Slice(ids, func(a, b int) bool { return row[ids[a]-base] < row[ids[b]-base] })
			o.byDist[v] = ids
			sd := make([]float64, count)
			for i, id := range ids {
				sd[i] = row[id-base]
			}
			o.sortedD[v] = sd
		}
	}); err != nil {
		return nil, err
	}
	return o, nil
}

// NumVPs returns the number of vantage points.
func (o *Ordering) NumVPs() int { return len(o.vps) }

// VPs returns the vantage point IDs. The caller must not modify the slice.
func (o *Ordering) VPs() []graph.ID { return o.vps }

// Base returns the first graph ID the ordering covers.
func (o *Ordering) Base() graph.ID { return o.base }

// Len returns the number of embedded graphs.
func (o *Ordering) Len() int { return len(o.dist[0]) }

// VPDistance returns d(vps[v], g) from the precomputed embedding. g must lie
// in the ordering's range.
func (o *Ordering) VPDistance(v int, g graph.ID) float64 { return o.dist[v][g-o.base] }

// LowerBound returns the vantage distance max_v |d(v,a) − d(v,b)|, a lower
// bound on d(a,b) (Theorem 4 / Definition 4 lifted to a VP set). Both graphs
// must lie in the ordering's range.
func (o *Ordering) LowerBound(a, b graph.ID) float64 {
	lb := 0.0
	for v := range o.dist {
		if d := math.Abs(o.dist[v][a-o.base] - o.dist[v][b-o.base]); d > lb {
			lb = d
		}
	}
	return lb
}

// UpperBound returns min_v (d(v,a) + d(v,b)), an upper bound on d(a,b) by
// the triangle inequality. Both graphs must lie in the ordering's range.
func (o *Ordering) UpperBound(a, b graph.ID) float64 {
	ub := math.MaxFloat64
	for v := range o.dist {
		if d := o.dist[v][a-o.base] + o.dist[v][b-o.base]; d < ub {
			ub = d
		}
	}
	return ub
}

// FPRSample measures the observed false positive rate of the embedding: the
// fraction of candidate pairs (within vantage distance θ) that are not true
// θ-neighbors under m. It samples `samples` query graphs using rng. This
// reproduces the measurement behind Figs. 5(f–h).
func (o *Ordering) FPRSample(m metric.Metric, theta float64, samples int, rng *rand.Rand) float64 {
	n := o.Len()
	ids := make([]graph.ID, n)
	for i := range ids {
		ids[i] = o.base + graph.ID(i)
	}
	all := o.Subset(ids, nil)
	candidates, falsePos := 0, 0
	for s := 0; s < samples; s++ {
		q := int32(rng.Intn(n))
		all.Scan(all.Coords(q), nil, theta, func(key int32) {
			if key == q {
				return
			}
			candidates++
			if m.Distance(ids[q], ids[key]) > theta {
				falsePos++
			}
		})
	}
	if candidates == 0 {
		return 0
	}
	return float64(falsePos) / float64(candidates)
}

// Insert extends the ordering with a newly appended database graph: one
// distance computation per vantage point plus a sorted insertion into each
// vantage ordering. The graph's ID must equal Base()+Len() (the next ID in
// the ordering's contiguous range). Not safe concurrently with reads.
func (o *Ordering) Insert(id graph.ID, m metric.Metric) error {
	if int(id-o.base) != o.Len() {
		return fmt.Errorf("vantage: inserting id %d, want %d", id, int(o.base)+o.Len())
	}
	for v, vp := range o.vps {
		d := m.Distance(vp, id)
		o.dist[v] = append(o.dist[v], d)
		pos := sort.SearchFloat64s(o.sortedD[v], d)
		o.sortedD[v] = append(o.sortedD[v], 0)
		copy(o.sortedD[v][pos+1:], o.sortedD[v][pos:])
		o.sortedD[v][pos] = d
		o.byDist[v] = append(o.byDist[v], 0)
		copy(o.byDist[v][pos+1:], o.byDist[v][pos:])
		o.byDist[v][pos] = id
	}
	return nil
}

// Bytes returns the approximate memory footprint of the ordering: the VO
// storage cost O(|V|·|D|) from the paper's storage analysis.
func (o *Ordering) Bytes() int64 {
	per := int64(o.Len()) * (8 + 4 + 8) // dist + id + sorted distance
	return per * int64(o.NumVPs())
}
