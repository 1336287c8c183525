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
// sketch row (ged.SketchWidth cells) beside its vantage row. A query's
// vantage pass (Pass) reads the subsets of every index part and tests each
// pair of members once; Scan lists the candidates of one query point. Both
// binary-search the same first-space windows the full ordering would, but
// walk only the subset's members inside them, so graphs outside the subset
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
// and turns on the sketch test; nil leaves the subset to the vantage rule
// alone. The members come out in exactly the order the first vantage space
// sorts them, which keeps every candidate order identical to a scan over the
// whole ordering. It costs O(Len() + len(ids)·NumVPs()). ids must
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

// Coords returns the embedding coordinates of the member with the given key —
// d(v, member) for every vantage point — as a read-only slice into the
// Subset. Because shards share one global VP set, the row is a valid query
// point for any shard's Subset.
func (s *Subset) Coords(key int32) []float64 { return s.row(int(s.at[key])) }

// row returns member i's vantage row.
func (s *Subset) row(i int) []float64 {
	return s.rows[i*s.nv : (i+1)*s.nv : (i+1)*s.nv]
}

// sketchRow returns member i's sketch row, or nil when the subset carries no
// sketches.
func (s *Subset) sketchRow(i int) []uint16 {
	if s.sketch == nil {
		return nil
	}
	return s.sketch[i*ged.SketchWidth : (i+1)*ged.SketchWidth]
}

// Scan computes the subset's part of the candidate neighborhood N̂_θ
// (Theorem 5) of the query point q, given by its embedding coordinates, and
// calls hit(key) for every candidate in first-space order. A member is a
// candidate if its first coordinate lies in the query's window (window), it
// is near the query in every other space (near), and it passes the sketch
// test against the query's sketch row qs when both it and the subset carry
// one (sketched). The tests are admissible for the star metric, so every
// θ-neighbor of the query among the members is hit.
func (s *Subset) Scan(q []float64, qs []uint16, theta float64, hit func(key int32)) {
	lo, hi := window(s.d0, q[0], theta)
	lim := ged.SketchLimit(theta)
	for i := lo; i < hi; i++ {
		if near(q, s.row(i), theta) && sketched(qs, s.sketchRow(i), lim) {
			hit(s.keys[i])
		}
	}
}

// The candidate rule. A member b is a candidate of a at θ if b's first
// coordinate lies in a's first-space window and the pair passes near and
// sketched. Those two are symmetric in the pair; the window is not, so a
// pass that tests each pair once keeps one bit per direction (Pass.Walk).

// window returns the index range [lo, hi) of the ascending first
// coordinates d0 inside the window of a member at q0: fl(q0−θ) ≤ d0[j] ≤
// fl(q0+θ), each end rounded once — the rule every scan has used. Just below
// a gap it admits a member |Δ_0| = θ + ulp away; testing |Δ_0| ≤ θ instead
// would drop it.
func window(d0 []float64, q0, theta float64) (lo, hi int) {
	return sort.SearchFloat64s(d0, q0-theta), sort.SearchFloat64s(d0, math.Nextafter(q0+theta, math.Inf(1)))
}

// admitting returns the index range [lo, hi) of the ascending first
// coordinates d0 whose own window admits a member at q0: the j with q0 in
// window(·, d0[j], θ), i.e. fl(d0[j]−θ) ≤ q0 ≤ fl(d0[j]+θ). Each condition
// is written as the binary search of window would decide it, so the range
// equals that set whenever no coordinate is NaN or −Inf. Rounding can make
// it differ from window(d0, q0, θ) by members one ulp beyond either edge.
func admitting(d0 []float64, q0, theta float64) (lo, hi int) {
	up := math.Inf(1)
	lo = sort.Search(len(d0), func(j int) bool { return !(q0 >= math.Nextafter(d0[j]+theta, up)) })
	hi = sort.Search(len(d0), func(j int) bool { return !(q0 >= d0[j]-theta) })
	return lo, hi
}

// near reports whether the vantage rows a and b pass |Δ_v| ≤ θ in every
// space v ≥ 1. It is exactly symmetric in the pair, since fl(x−y) =
// −fl(y−x), and small enough to inline into the walks.
func near(a, b []float64, theta float64) bool {
	b = b[:len(a)]
	for v := 1; v < len(a); v++ {
		if math.Abs(a[v]-b[v]) > theta {
			return false
		}
	}
	return true
}

// sketched reports whether a pair passes the sketch test, ged.SketchWithin
// at lim = ged.SketchLimit(θ), which runs only when both sketch rows are
// non-nil. The sketch sum is an integer, so the test is symmetric too.
func sketched(sa, sb []uint16, lim int) bool {
	return sa == nil || sb == nil || ged.SketchWithin(sa, sb, lim)
}

// Pass is one query's vantage pass at one θ over the subsets of a forest —
// one Subset per index part, the parts tiling the database in order and
// sharing one VP set. Its members are ranked: subsets in order, each
// subset's members in first-space order, which is the order of every
// member's candidate list. The pass tests each unordered pair of members
// once, from the member ranked first (Walk), and reports both directions:
// whether the partner is the walker's candidate and whether the walker is
// the partner's. The sketch test applies to a pair when both subsets carry
// sketch rows. A Pass is read-only and safe for concurrent use.
type Pass struct {
	views []*Subset
	// start[x] is the rank of views[x]'s first member; start[len(views)]
	// is the member count.
	start []int
	// keys[r] is the key of the member at rank r.
	keys  []int32
	theta float64
	lim   int
}

// NewPass ranks the members of views for a pass at theta. It costs
// O(members).
func NewPass(views []*Subset, theta float64) *Pass {
	p := &Pass{views: views, start: make([]int, len(views)+1), theta: theta, lim: ged.SketchLimit(theta)}
	for x, s := range views {
		p.start[x+1] = p.start[x] + len(s.keys)
	}
	p.keys = make([]int32, 0, p.start[len(views)])
	for _, s := range views {
		p.keys = append(p.keys, s.keys...)
	}
	return p
}

// Len returns the number of members.
func (p *Pass) Len() int { return len(p.keys) }

// Key returns the key of the member at rank r.
func (p *Pass) Key(r int) int32 { return p.keys[r] }

// Partner is one pair entry of a walk: the partner's rank shifted left by 2,
// with the direction bits Fwd and Back below it. Ranks must stay below 2³⁰.
type Partner uint32

const (
	// Fwd marks a partner that is the walker's candidate: its first
	// coordinate lies in the walker's window.
	Fwd Partner = 1
	// Back marks a walker that is the partner's candidate: the partner's
	// window admits the walker.
	Back Partner = 2
)

// Rank returns the partner's rank.
func (e Partner) Rank() int { return int(e >> 2) }

// Walk appends to dst, in rank order, the entries of the member at rank r:
// itself with Fwd when its own window admits it (always, unless its first
// coordinate is +Inf), then every member ranked after it that is a
// candidate in at least one direction, with that direction's bits. The Fwd
// bit is the window test a scan from r would make and the Back bit the one
// a scan from the partner would make, so the lists the entries describe are
// exactly the per-member scans'. Both windows are walked because rounding
// lets b ≤ fl(a+θ) and fl(b−θ) ≤ a disagree: in r's own subset the walk
// covers the members after r up to the end of the union of r's window and
// the members admitting r (admitting), and in each later subset that
// union's hull. near and sketched run once for each walked pair inside at
// least one of the windows; Walk returns the count of those pairs with the
// extended dst.
func (p *Pass) Walk(r int, dst []Partner) ([]Partner, int) {
	x := 0
	for p.start[x+1] <= r {
		x++
	}
	s := p.views[x]
	i := r - p.start[x]
	row, sk, q0 := s.row(i), s.sketchRow(i), s.d0[i]
	pairs := 0
	for y := x; y < len(p.views); y++ {
		t := p.views[y]
		loA, hiA := window(t.d0, q0, p.theta)
		loB, hiB := admitting(t.d0, q0, p.theta)
		lo := min(loA, loB)
		if y == x {
			if loA <= i && i < hiA {
				dst = append(dst, Partner(r)<<2|Fwd)
			}
			lo = max(lo, i+1)
		}
		base := p.start[y]
		for j := lo; j < max(hiA, hiB); j++ {
			var bits Partner
			if loA <= j && j < hiA {
				bits = Fwd
			}
			if loB <= j && j < hiB {
				bits |= Back
			}
			if bits == 0 {
				continue
			}
			pairs++
			if near(row, t.row(j), p.theta) && sketched(sk, t.sketchRow(j), p.lim) {
				dst = append(dst, Partner(base+j)<<2|bits)
			}
		}
	}
	return dst, pairs
}
