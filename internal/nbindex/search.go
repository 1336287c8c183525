package nbindex

import (
	"context"
	"fmt"
	"math"

	"graphrep/internal/bitset"
	"graphrep/internal/core"
	"graphrep/internal/graph"
	"graphrep/internal/metric"
	"graphrep/internal/pool"
	"graphrep/internal/vantage"
)

// call is one TopK call's state: the θ-neighborhood memo its vantage pass
// opens with, the lazy-greedy heap of its search and its coverage. It lives
// in the call's locals, never on a session, so concurrent calls on one
// session stay independent. Every per-call array, the heap included, is
// keyed by rel position: a graph's index in rel, the session's relevant IDs
// in ascending order, so position order is ID order.
//
// lists[pos] is rel position pos's pass candidate list until known has pos,
// and its memoized neighbor list after. The first verification filters the
// list against the covered set, threshold-tests the rest and keeps the
// uncovered θ-neighbors. Coverage only grows during a call, so that list
// stays a superset of the graph's uncovered neighborhood at every later
// pick, and re-verifying the graph is a filter of the list against the
// covered set: no scan and no threshold test. The memo holds 4 bytes per
// pass candidate in one exact-size array, plus a 24-byte slice header per
// relevant graph.
//
// heap holds one entry per relevant graph still in the running, keyed by
// its bound. A bound starts as the length of the graph's pass list, an
// upper bound on |N_θ(g) ∩ L_q| (Theorem 5, the π̂ of Definition 6
// evaluated at θ itself). Once verified it falls to the exact marginal gain
// (CELF); a picked graph, or one whose gain fell to 0, leaves the heap.
type call struct {
	m       metric.Metric
	rel     []graph.ID
	theta   float64
	st      *QueryStats
	lists   [][]int32
	known   *bitset.Set
	covered *bitset.Set
	heap    entryHeap
	held    []entry
}

// search answers one TopK call at threshold theta with budget k over a
// forest of index parts (see NewForestSession): one part for an unsharded
// index, every shard's for internal/shard. rel lists the relevant graphs in
// ascending ID order. Work is tallied into st.
//
// The call opens with one vantage pass over the relevant graphs, on the
// parts' worker pool (candidateLists), and seeds one heap with every
// relevant graph at its pass-list bound. Each greedy pick then verifies the
// graphs in (bound desc, rel position asc) order while a bound reaches the
// best gain verified so far (Alg. 2 over a one-level NB-Tree whose leaves
// are the relevant graphs). Bounds are admissible and only fall, by
// submodularity, so the pick is the exact greedy argmax — maximum marginal
// gain, ties toward the lower graph ID, picks stopping when nothing improves
// coverage — for any forest and any worker count, and the work does not
// depend on how the database is split into parts. The context is checked on
// entry, inside the pass, at every pick and every 256 heap pops; a cancelled
// call returns ctx.Err().
func search(ctx context.Context, parts []*Index, rel []graph.ID, theta float64, k int, st *QueryStats) (*core.Result, error) {
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
	res := &core.Result{Relevant: len(rel)}
	if len(rel) == 0 {
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
		pos, nbrs, err := c.pick(ctx)
		if err != nil {
			return nil, err
		}
		if pos < 0 {
			break
		}
		res.Answer = append(res.Answer, rel[pos])
		res.Gains = append(res.Gains, len(nbrs))
		for _, p := range nbrs {
			c.covered.Add(int(p))
		}
	}
	res.Covered = c.covered.Count()
	res.Power = float64(res.Covered) / float64(res.Relevant)
	return res, nil
}

// newCall runs the call's vantage pass, adds its pair count to
// st.PassPairs and seeds the heap from it. A part's Subset carries sketch
// rows when the part's pass filter is on (Index.UseSketchFilter).
func newCall(ctx context.Context, parts []*Index, rel []graph.ID, theta float64, st *QueryStats) (*call, error) {
	views := make([]*vantage.Subset, len(parts))
	for p, part := range parts {
		var sketch []uint16
		if part.sketchFilter {
			sketch = part.sketch
		}
		views[p] = part.vo.Subset(rel, sketch)
	}
	lists, pairs, err := candidateLists(ctx, views, len(rel), theta, parts[0].workers)
	if err != nil {
		return nil, err
	}
	st.PassPairs += pairs
	c := &call{
		m: parts[0].m, rel: rel, theta: theta, st: st, lists: lists,
		known:   bitset.New(len(rel)),
		covered: bitset.New(len(rel)),
		heap:    make(entryHeap, 0, len(rel)),
	}
	for pos, l := range lists {
		if len(l) > 0 {
			c.heap = append(c.heap, entry{bound: int32(len(l)), pos: int32(pos)})
		}
	}
	c.heap.init()
	return c, nil
}

// pick runs one greedy pick. While the top bound reaches the best gain
// verified so far (and is positive), it pops the top graph, verifies it and
// holds it aside at its exact gain; entries at the best gain are still
// verified so that ties resolve toward the lowest graph ID. The held graphs
// then return to the heap at their exact gains, except the picked one and
// any whose gain is 0. Holding them aside makes the pick verify exactly the
// graphs whose bound reaches its best gain. It returns the picked graph's
// rel position and the positions it newly covers (the memo's own slice), or
// pos −1 when no graph has a positive gain.
func (c *call) pick(ctx context.Context) (pos int32, nbrs []int32, err error) {
	pos = -1
	gain := int32(0)
	held := c.held[:0]
	for len(c.heap) > 0 && c.heap[0].bound >= max(gain, 1) {
		e := c.heap.pop()
		c.st.PQPops++
		// One atomic load every 256 pops bounds the abort latency of even a
		// pathological single-pick search.
		if c.st.PQPops&255 == 0 {
			if err := ctx.Err(); err != nil {
				return -1, nil, err
			}
		}
		got := c.verify(e.pos)
		g := int32(len(got))
		held = append(held, entry{bound: g, pos: e.pos})
		if g > gain || (g == gain && g > 0 && e.pos < pos) {
			pos, gain, nbrs = e.pos, g, got
		}
	}
	for _, e := range held {
		if e.bound > 0 && e.pos != pos {
			c.heap.push(e)
		}
	}
	c.held = held
	return pos, nbrs, nil
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
	g := c.rel[pos]
	kept := c.lists[pos][:0]
	for _, key := range c.lists[pos] {
		if c.covered.Contains(int(key)) {
			continue
		}
		if first {
			c.st.CandidateScans++
			if key != pos {
				leq, pruned := metric.Decide(c.m, g, c.rel[key], c.theta)
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

// passChunk is the number of ranks one worker-pool task of the vantage pass
// walks.
const passChunk = 16

// candidateLists runs one call's vantage pass at theta over n relevant
// graphs, keyed by rel position: lists[pos] holds the key of every member of
// views inside the candidate neighborhood of pos, in rank order — views in
// order and each view's members in first-space order (vantage.Pass), the
// order first verification tests them in. The rule is symmetric but for the
// first-space window, so the pass tests each unordered pair once: the worker
// pool walks fixed chunks of ranks (Pass.Walk), each member against the
// members ranked after it, and keeps each admitted pair with its two
// direction bits. Two sequential passes then count every list and fill it:
// in rank order, each member's own entry and its Fwd partners go into its
// list and the member itself into each Back partner's list, after every
// entry ranked before it. So the lists are identical for any worker count
// and equal a per-graph scan of every view. They share one exact-size
// backing array, each sliced with cap == len so that verify's in-place
// filter cannot reach a neighbor. It also returns the pairs the pass tested
// (QueryStats.PassPairs); a cancelled ctx returns ctx.Err().
func candidateLists(ctx context.Context, views []*vantage.Subset, n int, theta float64, workers int) ([][]int32, int, error) {
	p := vantage.NewPass(views, theta)
	members := p.Len()
	bufs := make([][]vantage.Partner, (members+passChunk-1)/passChunk)
	walked := make([]int, len(bufs))
	// ends[r] is the end of rank r's walk in its chunk's buffer.
	ends := make([]int32, members)
	err := pool.Ranges(ctx, members, workers, passChunk, func(lo, hi int) {
		var buf []vantage.Partner
		pairs := 0
		for r := lo; r < hi; r++ {
			var w int
			buf, w = p.Walk(r, buf)
			pairs += w
			ends[r] = int32(len(buf))
		}
		bufs[lo/passChunk], walked[lo/passChunk] = buf, pairs
	})
	if err != nil {
		return nil, 0, err
	}
	// run returns rank r's walk.
	run := func(r int) []vantage.Partner {
		start := int32(0)
		if r%passChunk != 0 {
			start = ends[r-1]
		}
		return bufs[r/passChunk][start:ends[r]]
	}
	// off[r+1] counts rank r's entries, then off[r] becomes its start.
	off := make([]int32, members+1)
	for r := range members {
		for _, e := range run(r) {
			if e&vantage.Fwd != 0 {
				off[r+1]++
			}
			if e&vantage.Back != 0 {
				off[e.Rank()+1]++
			}
		}
	}
	for r := range members {
		off[r+1] += off[r]
	}
	backing := make([]int32, off[members])
	lists := make([][]int32, n)
	for r := range members {
		lists[p.Key(r)] = backing[off[r]:off[r+1]:off[r+1]]
	}
	// off[r] is now rank r's write cursor.
	for r := range members {
		for _, e := range run(r) {
			if e&vantage.Fwd != 0 {
				backing[off[r]] = p.Key(e.Rank())
				off[r]++
			}
			if e&vantage.Back != 0 {
				q := e.Rank()
				backing[off[q]] = p.Key(r)
				off[q]++
			}
		}
	}
	pairs := 0
	for _, w := range walked {
		pairs += w
	}
	return lists, pairs, nil
}

// entry is a search heap element: a relevant graph's rel position with its
// bound when pushed.
type entry struct {
	bound int32
	pos   int32
}

// entryHeap is a typed max-heap on bound, ties toward the lower rel
// position. Entries are stored by value in one slice — no container/heap, no
// interface boxing, no per-push allocation. A graph has at most one entry,
// so positions are unique and the pop order is a strict total order
// independent of the heap implementation.
type entryHeap []entry

func (h entryHeap) less(i, j int) bool {
	if h[i].bound != h[j].bound {
		return h[i].bound > h[j].bound
	}
	return h[i].pos < h[j].pos
}

// init orders an arbitrary slice into a heap in O(n).
func (h entryHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
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
	*h = a[:n]
	h.down(0)
	return top
}

// down sifts element i toward the leaves.
func (h entryHeap) down(i int) {
	for n := len(h); ; {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && h.less(r, c) {
			c = r
		}
		if !h.less(c, i) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
