package vantage

import (
	"math"
	"sort"

	"graphrep/internal/ged"
	"graphrep/internal/graph"
)

// Subset is a compact copy of an Ordering's rows for a subset of its graphs —
// in practice a query's relevant set L_q — laid out row-major in the order of
// the first vantage space, optionally with each member's star-histogram
// sketch row (ged.SketchWidth cells) beside its vantage row. A scan
// binary-searches the same first-space window the full ordering would, but
// walks only the subset's members inside it, so graphs outside the subset
// cost nothing. Members are addressed by key: the position of their ID in
// the slice passed to Ordering.Subset. A Subset is immutable and safe for
// concurrent use.
type Subset struct {
	nv int
	// keys[i] is the key of the i-th member in first-space order.
	keys []int32
	// d0[i] is that member's stored first-space coordinate (ascending).
	d0 []float64
	// rows[i*nv+v] is d(vps[v], member i).
	rows []float64
	// sketch[i*ged.SketchWidth:] is member i's sketch row; nil when the
	// subset was built without sketches.
	sketch []uint16
	// at[key] is the member index holding key, or −1 for IDs outside the
	// ordering's range.
	at []int32
}

// Subset copies the rows of the graphs in ids that lie in the ordering's
// range; IDs outside it are skipped, so every shard of a partitioned
// database can be handed the same ID list. sketch, when non-nil, holds one
// sketch row per covered graph (graph base+i at sketch[i*ged.SketchWidth:])
// and turns on Scan's sketch test; nil leaves scans to the vantage rule
// alone. The members come out in exactly the order the first vantage space
// sorts them, which keeps every scan's candidate order identical to a scan
// over the whole ordering. It costs O(Len() + len(ids)·NumVPs()). ids must
// not repeat an ID.
func (o *Ordering) Subset(ids []graph.ID, sketch []uint16) *Subset {
	nv := len(o.dist)
	// mark[id−base] holds key+1, so the zero value means "not a member".
	mark := make([]int32, o.Len())
	s := &Subset{nv: nv, at: make([]int32, len(ids))}
	members := 0
	for k, id := range ids {
		s.at[k] = -1
		if i := int(id - o.base); id >= o.base && i < len(mark) {
			mark[i] = int32(k) + 1
			members++
		}
	}
	s.keys = make([]int32, 0, members)
	s.d0 = make([]float64, 0, members)
	s.rows = make([]float64, 0, members*nv)
	if sketch != nil {
		s.sketch = make([]uint16, 0, members*ged.SketchWidth)
	}
	for _, id := range o.order {
		k := mark[id-o.base] - 1
		if k < 0 {
			continue
		}
		s.at[k] = int32(len(s.keys))
		s.keys = append(s.keys, k)
		s.d0 = append(s.d0, o.dist[0][id-o.base])
		for v := range o.dist {
			s.rows = append(s.rows, o.dist[v][id-o.base])
		}
		if sketch != nil {
			r := int(id-o.base) * ged.SketchWidth
			s.sketch = append(s.sketch, sketch[r:r+ged.SketchWidth]...)
		}
	}
	return s
}

// Has reports whether the graph with the given key is a member.
func (s *Subset) Has(key int32) bool { return s.at[key] >= 0 }

// Coords returns the embedding coordinates of the member with the given key —
// d(v, member) for every vantage point — as a read-only slice into the
// Subset. Because shards share one global VP set, the row is a valid query
// point for any shard's Subset: that is how the coordinator scans the
// neighborhood of a graph inside shards that do not own it, with zero
// distance computations.
func (s *Subset) Coords(key int32) []float64 {
	i := int(s.at[key]) * s.nv
	return s.rows[i : i+s.nv : i+s.nv]
}

// Sketch returns the sketch row of the member with the given key, read-only,
// or nil when the subset carries no sketches. Sketch rows depend on the
// graph alone, so like Coords the row is a valid query for any Subset.
func (s *Subset) Sketch(key int32) []uint16 {
	if s.sketch == nil {
		return nil
	}
	i := int(s.at[key]) * ged.SketchWidth
	return s.sketch[i : i+ged.SketchWidth : i+ged.SketchWidth]
}

// Scan computes the subset's part of the candidate neighborhood N̂_θ
// (Theorem 5) of the query point q, given by its embedding coordinates, and
// calls hit(key) for every candidate in first-space order. A member is a
// candidate if its vantage distance to q is ≤ θ in every space — the first
// space bounded by the binary-searched window [q[0]−θ, q[0]+θ] over the
// stored first coordinates, the other spaces by |Δ_v| ≤ θ, the same rule
// and the same floating-point operations as a scan over the full ordering —
// and, when the subset carries sketches, if its sketch row and the query's,
// qs, also satisfy ged.SketchWithin at θ. Both tests are admissible for the
// star metric, so every θ-neighbor of the query among the members is hit.
func (s *Subset) Scan(q []float64, qs []uint16, theta float64, hit func(key int32)) {
	q0 := q[0]
	lo := sort.SearchFloat64s(s.d0, q0-theta)
	hi := sort.SearchFloat64s(s.d0, math.Nextafter(q0+theta, math.Inf(1)))
	nv := s.nv
	lim := ged.SketchLimit(theta)
scan:
	for i := lo; i < hi; i++ {
		row := s.rows[i*nv : i*nv+nv]
		for v := 1; v < nv; v++ {
			if math.Abs(row[v]-q[v]) > theta {
				continue scan
			}
		}
		if s.sketch != nil && !ged.SketchWithin(s.sketch[i*ged.SketchWidth:(i+1)*ged.SketchWidth], qs, lim) {
			continue
		}
		hit(s.keys[i])
	}
}
