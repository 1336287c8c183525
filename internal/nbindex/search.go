package nbindex

import (
	"context"
	"fmt"
	"math"

	"graphrep/internal/bitset"
	"graphrep/internal/core"
	"graphrep/internal/graph"
	"graphrep/internal/metric"
	"graphrep/internal/nbtree"
	"graphrep/internal/pool"
	"graphrep/internal/vantage"
)

// relSet is the relevant set L_q of one relevance function, the state a
// session keeps because no threshold changes it.
type relSet struct {
	// ids lists the relevant graphs in ascending ID order. A graph's index
	// in ids is its rel position, the key of every per-call array, so
	// position order is ID order.
	ids []graph.ID
	// positions maps a database ID to its rel position, or −1: 4 bytes per
	// database graph.
	positions []int32
}

// newRelSet runs the relevance filter of q over db. A context cancelled by
// the time the filter finishes returns ctx.Err() and no set.
func newRelSet(ctx context.Context, db *graph.Database, q core.Relevance) (*relSet, error) {
	ids := core.Relevant(db, q)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	positions := make([]int32, db.Len())
	for i := range positions {
		positions[i] = -1
	}
	for i, id := range ids {
		positions[id] = int32(i)
	}
	return &relSet{ids: ids, positions: positions}, nil
}

// pos returns id's rel position, or −1 for an irrelevant graph or one
// inserted after the set was built.
func (r *relSet) pos(id graph.ID) int32 {
	if int(id) >= len(r.positions) {
		return -1
	}
	return r.positions[id]
}

// call is one TopK call's state over a forest of index parts: the
// θ-neighborhood memo its vantage pass opens with, the leaf bounds of its
// best-first search and its coverage. It lives in the call's locals, never
// on a session, so concurrent calls on one session stay independent.
//
// lists[pos] is rel position pos's pass candidate list until known has pos,
// and its memoized neighbor list after. The first verification filters the
// list against the covered set, threshold-tests the rest and keeps the
// uncovered θ-neighbors. Coverage only grows during a call, so that list
// stays a superset of the graph's uncovered neighborhood at every later
// pick, and re-verifying the graph is a filter of the list against the
// covered set: no scan and no threshold test. The memo holds 4 bytes per
// pass candidate, up to twice that where the pass grew its buffer by
// appending, plus a 24-byte slice header per relevant graph.
//
// bound[p][n] is the largest leaf bound under node n of part p's tree, −1
// where no relevant unpicked leaf lies below. A leaf's bound starts as the
// length of its pass list, an upper bound on |N_θ(g) ∩ L_q| (Theorem 5, the
// π̂ of Definition 6 evaluated at θ itself). Once verified it falls to the
// exact marginal gain (CELF); once picked, to −1.
type call struct {
	m       metric.Metric
	rel     *relSet
	theta   float64
	parts   []*Index
	st      *QueryStats
	lists   [][]int32
	known   *bitset.Set
	covered *bitset.Set
	bound   [][]int32
	heap    entryHeap
}

// search answers one TopK call at threshold theta with budget k over a
// forest of index parts (see NewForestSession): one part for an unsharded
// index, every shard's for internal/shard. Work is tallied into st.
//
// The call opens with one vantage pass over the relevant graphs, on the
// parts' worker pool (candidateLists). Each greedy pick then runs a
// best-first search from every part's root at once (Alg. 2), popping nodes
// by (bound desc, part asc, node asc) and verifying every leaf whose bound
// reaches the best gain verified so far. Bounds are admissible and only
// fall, by submodularity, so the pick is the exact greedy argmax — maximum
// marginal gain, ties toward the lower graph ID, picks stopping when nothing
// improves coverage — for any forest and any worker count. The context is
// checked on entry, inside the pass, at every pick and every 256 heap pops;
// a cancelled call returns ctx.Err().
func search(ctx context.Context, parts []*Index, rel *relSet, theta float64, k int, st *QueryStats) (*core.Result, error) {
	if math.IsNaN(theta) {
		return nil, fmt.Errorf("nbindex: theta is NaN")
	}
	if theta < 0 {
		return nil, fmt.Errorf("nbindex: negative theta %v", theta)
	}
	if k <= 0 {
		return nil, fmt.Errorf("nbindex: non-positive k %d", k)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := &core.Result{Relevant: len(rel.ids)}
	if len(rel.ids) == 0 {
		return res, nil
	}
	c, err := newCall(ctx, parts, rel, theta, st)
	if err != nil {
		return nil, err
	}
	for len(res.Answer) < k {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		best, pos, nbrs, err := c.pick(ctx)
		if err != nil {
			return nil, err
		}
		if pos < 0 {
			break
		}
		c.setBound(best, -1)
		res.Answer = append(res.Answer, rel.ids[pos])
		res.Gains = append(res.Gains, len(nbrs))
		for _, p := range nbrs {
			c.covered.Add(int(p))
		}
	}
	res.Covered = c.covered.Count()
	res.Power = float64(res.Covered) / float64(res.Relevant)
	return res, nil
}

// newCall runs the call's vantage pass and seeds the search bounds from it.
// A part's Subset carries sketch rows when the part's pass filter is on
// (Index.UseSketchFilter).
func newCall(ctx context.Context, parts []*Index, rel *relSet, theta float64, st *QueryStats) (*call, error) {
	views := make([]*vantage.Subset, len(parts))
	for p, part := range parts {
		var sketch []uint16
		if part.sketchFilter {
			sketch = part.sketch
		}
		views[p] = part.vo.Subset(rel.ids, sketch)
	}
	lists, err := candidateLists(ctx, views, len(rel.ids), theta, parts[0].workers)
	if err != nil {
		return nil, err
	}
	c := &call{
		m: parts[0].m, rel: rel, theta: theta, parts: parts, st: st, lists: lists,
		known:   bitset.New(len(rel.ids)),
		covered: bitset.New(len(rel.ids)),
		bound:   make([][]int32, len(parts)),
	}
	for p, part := range parts {
		f := part.flat
		b := make([]int32, f.Len())
		// Children follow their parent in node order, so one backward sweep
		// fills every maximum from finished children.
		for n := int32(f.Len() - 1); n >= 0; n-- {
			if !f.Leaf(n) {
				b[n] = maxChild(f, b, n)
			} else if pos := rel.pos(f.Centroids[n]); pos >= 0 {
				b[n] = int32(len(lists[pos]))
			} else {
				b[n] = -1
			}
		}
		c.bound[p] = b
	}
	return c, nil
}

// maxChild returns the largest bound among node n's children, −1 for none.
func maxChild(f *nbtree.Flat, b []int32, n int32) int32 {
	best := int32(-1)
	for ch := f.FirstChild[n]; ch != -1; ch = f.NextSibling[ch] {
		best = max(best, b[ch])
	}
	return best
}

// setBound sets leaf e's bound to b and re-propagates the maxima upward,
// stopping at the first ancestor whose maximum does not change.
func (c *call) setBound(e entry, b int32) {
	f, bd := c.parts[e.part].flat, c.bound[e.part]
	bd[e.node] = b
	for n := f.Parents[e.node]; n != -1; n = f.Parents[n] {
		m := maxChild(f, bd, n)
		if m == bd[n] {
			return
		}
		bd[n] = m
	}
}

// pick runs one greedy pick: a best-first search from every part's root
// that verifies each leaf whose bound reaches the best gain found so far,
// lowering the leaf's bound to its exact gain as it goes. Bounds equal to
// the best gain are still explored so that ties resolve toward the lowest
// graph ID. It returns the picked leaf, its rel position and the positions
// it newly covers (the memo's own slice), or pos −1 when no graph has a
// positive gain.
func (c *call) pick(ctx context.Context) (best entry, pos int32, nbrs []int32, err error) {
	pos = -1
	gain := int32(0)
	h := c.heap[:0]
	for p, b := range c.bound {
		if b[0] > 0 {
			h.push(entry{bound: b[0], part: int32(p)})
		}
	}
	for len(h) > 0 {
		e := h.pop()
		c.st.PQPops++
		// One atomic load every 256 pops bounds the abort latency of even a
		// pathological single-pick search.
		if c.st.PQPops&255 == 0 {
			if err := ctx.Err(); err != nil {
				return entry{}, -1, nil, err
			}
		}
		if e.bound < gain {
			break
		}
		f := c.parts[e.part].flat
		if !f.Leaf(e.node) {
			for ch := f.FirstChild[e.node]; ch != -1; ch = f.NextSibling[ch] {
				if b := c.bound[e.part][ch]; b > 0 && b >= gain {
					h.push(entry{bound: b, part: e.part, node: ch})
				}
			}
			continue
		}
		p := c.rel.pos(f.Centroids[e.node])
		got := c.verify(p)
		g := int32(len(got))
		c.setBound(e, g)
		if g > gain || (g == gain && g > 0 && p < pos) {
			best, pos, gain, nbrs = e, p, g, got
		}
	}
	c.heap = h
	return best, pos, nbrs, nil
}

// verify computes the exact marginal gain of rel position pos at the call's
// threshold: it returns the rel positions picking the graph would newly
// cover (pos itself included while uncovered), whose count is the gain.
// Every call filters the graph's list against the covered set in place. The
// first call also threshold-tests each remaining candidate other than pos
// (Alg. 2 lines 8–11) through metric.Decide, so a bounded metric can prune
// a test with a cheap bound instead of a full distance computation — the
// decision is exactly d ≤ θ either way, which is why answers do not depend
// on the kernel.
func (c *call) verify(pos int32) []int32 {
	c.st.VerifiedLeaves++
	first := !c.known.Contains(int(pos))
	g := c.rel.ids[pos]
	kept := c.lists[pos][:0]
	for _, key := range c.lists[pos] {
		if c.covered.Contains(int(key)) {
			continue
		}
		if first {
			c.st.CandidateScans++
			if key != pos {
				leq, pruned := metric.Decide(c.m, g, c.rel.ids[key], c.theta)
				if pruned {
					c.st.PrunedDistances++
				} else {
					c.st.ExactDistances++
				}
				if !leq {
					continue
				}
			}
		}
		kept = append(kept, key)
	}
	c.lists[pos] = kept
	c.known.Add(int(pos))
	return kept
}

// candidateLists runs one call's vantage pass at theta over n relevant
// graphs, keyed by rel position: lists[pos] holds the key of every member of
// views inside the candidate neighborhood of pos (Subset.Scan), views in
// order and each view's members in first-space order — the order first
// verification tests them in. Each graph is scanned from its home view, the
// one holding its own coordinates and sketch row; shards share one VP set,
// so those are a valid query for every view. Each worker writes only its
// own positions' lists, so the result is identical for any worker count; a
// cancelled ctx returns ctx.Err(). The lists of one chunk share a backing
// array, sliced with cap == len so no list can grow into its neighbor.
func candidateLists(ctx context.Context, views []*vantage.Subset, n int, theta float64, workers int) ([][]int32, error) {
	lists := make([][]int32, n)
	err := pool.Ranges(ctx, n, workers, 16, func(lo, hi int) {
		var buf []int32
		hit := func(key int32) { buf = append(buf, key) }
		ends := make([]int, hi-lo)
		for pos := int32(lo); pos < int32(hi); pos++ {
			home := views[0]
			for _, v := range views {
				if v.Has(pos) {
					home = v
					break
				}
			}
			q, qs := home.Coords(pos), home.Sketch(pos)
			for _, v := range views {
				v.Scan(q, qs, theta, hit)
			}
			ends[int(pos)-lo] = len(buf)
		}
		start := 0
		for i, end := range ends {
			lists[lo+i] = buf[start:end:end]
			start = end
		}
	})
	if err != nil {
		return nil, err
	}
	return lists, nil
}

// entry is a search heap element: node of part's flat NB-Tree with the
// node's bound when pushed.
type entry struct {
	bound int32
	part  int32
	node  int32
}

// entryHeap is a typed max-heap on bound, ties toward the lower part and
// then the lower node index. Entries are stored by value in one slice — no
// container/heap, no interface boxing, no per-push allocation. A node is
// pushed at most once per pick, so (part, node) keys are unique and the pop
// order is a strict total order independent of the heap implementation.
type entryHeap []entry

func (h entryHeap) less(i, j int) bool {
	if h[i].bound != h[j].bound {
		return h[i].bound > h[j].bound
	}
	if h[i].part != h[j].part {
		return h[i].part < h[j].part
	}
	return h[i].node < h[j].node
}

// push inserts e and sifts it up.
func (h *entryHeap) push(e entry) {
	*h = append(*h, e)
	a := *h
	for i := len(a) - 1; i > 0; {
		p := (i - 1) / 2
		if !a.less(i, p) {
			break
		}
		a[i], a[p] = a[p], a[i]
		i = p
	}
}

// pop removes and returns the top entry.
func (h *entryHeap) pop() entry {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a = a[:n]
	*h = a
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && a.less(r, c) {
			c = r
		}
		if !a.less(c, i) {
			break
		}
		a[i], a[c] = a[c], a[i]
		i = c
	}
	return top
}
