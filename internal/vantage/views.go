package vantage

import (
	"fmt"

	"graphrep/internal/bitset"
	"graphrep/internal/graph"
)

// FromViews assembles an Ordering from persisted arrays — typically zero-copy
// views over v4 index sections. dist and sortedD are row-major
// len(vps)×count matrices, byDist the matching ID matrix; rows are sliced out
// with capacity clipped to the row, so an Insert-time append on any row
// reallocates instead of growing into its neighbor (or through a mapping).
//
// It is FromViewsDeferred followed immediately by Validate — use the
// deferred pair when the O(count) content scan should wait until first use.
func FromViews(vps []graph.ID, base graph.ID, count int, dist, sortedD []float64, byDist []graph.ID) (*Ordering, error) {
	o, err := FromViewsDeferred(vps, base, count, dist, sortedD, byDist)
	if err != nil {
		return nil, err
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return o, nil
}

// FromViewsDeferred is FromViews minus the content scan: it checks only the
// shape invariants (non-empty, matrix dimensions) in O(1) and defers
// Validate to the caller, keeping a mapped open independent of index size.
// The Ordering must not serve lookups until Validate has passed.
func FromViewsDeferred(vps []graph.ID, base graph.ID, count int, dist, sortedD []float64, byDist []graph.ID) (*Ordering, error) {
	if len(vps) == 0 {
		return nil, fmt.Errorf("vantage: no vantage points")
	}
	if count <= 0 {
		return nil, fmt.Errorf("vantage: count %d", count)
	}
	if base < 0 {
		return nil, fmt.Errorf("vantage: base %d", base)
	}
	want := len(vps) * count
	if len(dist) != want || len(sortedD) != want || len(byDist) != want {
		return nil, fmt.Errorf("vantage: matrices of %d/%d/%d values, want %d (%d VPs × %d graphs)",
			len(dist), len(sortedD), len(byDist), want, len(vps), count)
	}
	o := &Ordering{
		vps:     vps,
		base:    base,
		dist:    make([][]float64, len(vps)),
		byDist:  make([][]graph.ID, len(vps)),
		sortedD: make([][]float64, len(vps)),
	}
	for v := range vps {
		lo, hi := v*count, (v+1)*count
		o.dist[v] = dist[lo:hi:hi]
		o.sortedD[v] = sortedD[lo:hi:hi]
		o.byDist[v] = byDist[lo:hi:hi]
	}
	return o, nil
}

// Validate runs the O(count) content scan a deferred construction skipped:
// byDist's first row — the only row whose entries are used as array
// indices — must be a permutation of [base, base+count). Subset relies on
// the permutation: a repeated ID would leave another graph without a row.
// Distance values are used only as comparands, so corrupt values can skew
// answers but never fault; deeper consistency is the compat tests' job, not
// the load path's.
func (o *Ordering) Validate() error {
	base, count := o.base, len(o.byDist[0])
	seen := bitset.New(count)
	for _, id := range o.byDist[0] {
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

// SortedRow returns the ascending distance row of vantage point v. Read-only.
func (o *Ordering) SortedRow(v int) []float64 { return o.sortedD[v] }

// ByDistRow returns the graph IDs of vantage point v's ordering, sorted by
// distance (matching SortedRow). Read-only.
func (o *Ordering) ByDistRow(v int) []graph.ID { return o.byDist[v] }
