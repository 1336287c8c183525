package vantage

import (
	"fmt"

	"graphrep/internal/bitset"
	"graphrep/internal/graph"
)

// FromViewsDeferred assembles an Ordering from persisted arrays — typically
// zero-copy views over v4 index sections. dist is a row-major
// len(vps)×count matrix and order the count IDs sorted along the first
// space; rows are sliced out with capacity clipped to the row, so an
// Insert-time append on any row reallocates instead of growing into its
// neighbor (or through a mapping). It checks only the shape invariants
// (non-empty, matrix dimensions) in O(1) and defers the content scan to
// Validate, keeping a mapped open independent of index size. The Ordering
// must not serve lookups until Validate has passed.
func FromViewsDeferred(vps []graph.ID, base graph.ID, count int, dist []float64, order []graph.ID) (*Ordering, error) {
	if len(vps) == 0 {
		return nil, fmt.Errorf("vantage: no vantage points")
	}
	if count <= 0 {
		return nil, fmt.Errorf("vantage: count %d", count)
	}
	if base < 0 {
		return nil, fmt.Errorf("vantage: base %d", base)
	}
	if want := len(vps) * count; len(dist) != want {
		return nil, fmt.Errorf("vantage: distance matrix of %d values, want %d (%d VPs × %d graphs)",
			len(dist), want, len(vps), count)
	}
	if len(order) != count {
		return nil, fmt.Errorf("vantage: order of %d IDs, want %d", len(order), count)
	}
	o := &Ordering{
		vps:   vps,
		base:  base,
		dist:  make([][]float64, len(vps)),
		order: order[:count:count],
	}
	for v := range vps {
		lo, hi := v*count, (v+1)*count
		o.dist[v] = dist[lo:hi:hi]
	}
	return o, nil
}

// Validate runs the O(count) content scan a deferred construction skipped:
// the order — whose entries are used as array indices — must be a
// permutation of [base, base+count). Subset relies on the permutation: a
// repeated ID would leave another graph without a row. Distance values are
// used only as comparands, so corrupt values can skew answers but never
// fault; deeper consistency is the compat tests' job, not the load path's.
func (o *Ordering) Validate() error {
	base, count := o.base, len(o.order)
	seen := bitset.New(count)
	for _, id := range o.order {
		if id < base || int(id-base) >= count {
			return fmt.Errorf("vantage: ordering entry %d outside covered range [%d, %d)", id, base, int(base)+count)
		}
		if seen.Contains(int(id - base)) {
			return fmt.Errorf("vantage: ordering entry %d repeated", id)
		}
		seen.Add(int(id - base))
	}
	return nil
}

// DistRow returns the distance row of vantage point v: d(vps[v], g) indexed
// by g−Base(). Read-only; the persistence writer serializes rows directly.
func (o *Ordering) DistRow(v int) []float64 { return o.dist[v] }

// Order returns the covered graph IDs sorted by their first-space distance,
// DistRow(0). Read-only.
func (o *Ordering) Order() []graph.ID { return o.order }
