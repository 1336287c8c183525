package shard

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"graphrep/internal/bitset"
	"graphrep/internal/core"
	"graphrep/internal/graph"
	"graphrep/internal/nbindex"
	"graphrep/internal/nbtree"
	"graphrep/internal/pool"
	"graphrep/internal/vantage"
)

// QuerySession is the query-time surface shared by the single-shard session
// (nbindex.Session, used when the set has one shard) and the multi-shard
// coordinator session. Engines program against this interface so the shard
// count never leaks into the query API.
type QuerySession interface {
	TopK(theta float64, k int) (*core.Result, error)
	TopKContext(ctx context.Context, theta float64, k int) (*core.Result, error)
	SweepTheta(k int, extra ...float64) ([]nbindex.ThetaPoint, error)
	SweepThetaContext(ctx context.Context, k int, extra ...float64) ([]nbindex.ThetaPoint, error)
	LastStats() nbindex.QueryStats
	RelevantCount() int
}

// NewSession runs the initialization phase for relevance function q. See
// NewSessionContext.
func (s *Set) NewSession(q core.Relevance) (QuerySession, error) {
	return s.NewSessionContext(context.Background(), q)
}

// NewSessionContext runs the initialization phase for relevance function q:
// the relevance filter over the database. With one shard it returns the
// plain nbindex session (identical behavior and stats to the unsharded
// engine); with more it returns the scatter-gather coordinator.
func (s *Set) NewSessionContext(ctx context.Context, q core.Relevance) (QuerySession, error) {
	// A database opened from a GRDB001 container defers its content
	// validation to first use; settle it before any session traverses graph
	// structure. Repeat sessions hit the cached verdict.
	if err := s.db.EnsureValid(); err != nil {
		return nil, fmt.Errorf("shard: graph store: %w", err)
	}
	if len(s.parts) == 1 {
		return s.parts[0].NewSessionContext(ctx, q)
	}
	return newCoordSession(ctx, s, q)
}

// coordSession is the coordinator's initialization state for one relevance
// function: the relevant set and its position map. Like nbindex.Session it
// keeps nothing that depends on θ; each call runs its own vantage pass.
// After initialization it is read-only apart from the mutex-guarded
// LastStats bookkeeping, so concurrent TopK calls are safe.
type coordSession struct {
	set *Set
	rel []graph.ID
	// relPos maps a database ID to its position in rel, or −1.
	relPos    []int
	statsMu   sync.Mutex
	lastStats nbindex.QueryStats // guarded by statsMu
}

func newCoordSession(ctx context.Context, set *Set, q core.Relevance) (*coordSession, error) {
	// Parts loaded from a mapped v4 container defer their content
	// validation to first use; settle it for every shard before any
	// navigation. Repeat sessions hit the cached verdict.
	for p, part := range set.parts {
		if err := part.EnsureValid(); err != nil {
			return nil, fmt.Errorf("shard %d: %w", p, err)
		}
	}
	s := &coordSession{set: set, rel: core.Relevant(set.db, q)}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.relPos = make([]int, set.db.Len())
	for i := range s.relPos {
		s.relPos[i] = -1
	}
	for i, id := range s.rel {
		s.relPos[id] = i
	}
	return s, nil
}

// RelevantCount returns |L_q| for the session.
func (s *coordSession) RelevantCount() int { return len(s.rel) }

// LastStats returns statistics from the most recently completed TopK call.
func (s *coordSession) LastStats() nbindex.QueryStats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.lastStats
}

// TopK runs the scatter-gather greedy at threshold theta with budget k. See
// TopKContext.
func (s *coordSession) TopK(theta float64, k int) (*core.Result, error) {
	return s.TopKContext(context.Background(), theta, k)
}

// TopKContext runs the search-and-update phase across every shard tree. The
// call opens with one vantage pass on the worker pool
// (nbindex.NewNeighborMemo): each relevant graph's shared-VP coordinates are
// scanned against every shard's rows of the relevant graphs, in shard order,
// so its list is the unsharded candidate list and its length the global π̂
// bound at θ. Each greedy pick then advances the per-shard frontiers in
// parallel on the pool — every shard enumerates its positive-bound
// candidate leaves from its own tree, independently of the others — merges
// them into one list ordered by (bound desc, shard, node) and verifies
// serially down that list through the call's nbindex.NeighborMemo, exactly
// like the unsharded session. Bounds are admissible and every candidate
// whose bound reaches the best verified gain is verified, so the pick is the
// exact greedy argmax with ties toward the lower graph ID — the same answer
// as the unsharded engine, for any shard count and any worker count (the
// threshold tests that consult mutable metric state stay serial in list
// order, so QueryStats are worker-independent too). Cancellation mirrors
// nbindex: checked on entry, at every greedy pick, before every
// verification, and inside every pool fan-out.
func (s *coordSession) TopKContext(ctx context.Context, theta float64, k int) (*core.Result, error) {
	if math.IsNaN(theta) {
		return nil, fmt.Errorf("shard: theta is NaN")
	}
	if theta < 0 {
		return nil, fmt.Errorf("shard: negative theta %v", theta)
	}
	if k <= 0 {
		return nil, fmt.Errorf("shard: non-positive k %d", k)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	parts := s.set.parts
	res := &core.Result{Relevant: len(s.rel)}
	var st nbindex.QueryStats
	finish := func() {
		s.statsMu.Lock()
		s.lastStats = st
		s.statsMu.Unlock()
		s.set.tel.Load().Observe(st)
	}
	if len(s.rel) == 0 {
		finish()
		return res, nil
	}

	// The call's vantage pass: every shard's rows of the relevant graphs,
	// keyed by rel position, scanned from each graph's home-shard
	// coordinates. Each shard covers a disjoint ID range, so a list holds
	// exactly the unsharded candidates, in shard order.
	views := make([]*vantage.Subset, len(parts))
	for p, part := range parts {
		views[p] = part.VO().Subset(s.rel)
	}
	covered := bitset.New(len(s.rel))
	inAnswer := make([]bool, len(s.rel))
	memo, err := nbindex.NewNeighborMemo(ctx, s.set.m, s.rel, theta, views,
		func(pos int32) int { return s.set.PartFor(s.rel[pos]) }, s.set.workers, covered, &st)
	if err != nil {
		return nil, err
	}

	// Per-shard bound state at this θ, mirroring nbindex.Session.TopKContext:
	// leaf bounds come from the pass, F is the per-subtree running maximum,
	// sub holds the permanent credit subtractions. Only the containing tree
	// differs per shard.
	flats := make([]*nbtree.Flat, len(parts))
	sub := make([][]int32, len(parts))
	F := make([][]int32, len(parts))
	for p, part := range parts {
		flats[p] = part.Flat()
	}
	leafBound := func(p int, idx int32) int32 {
		pos := s.relPos[flats[p].Centroids[idx]]
		if pos < 0 {
			return -1 // irrelevant leaf: never selectable
		}
		return memo.Bound(int32(pos))
	}
	// Each shard's bound arrays are filled independently from its own tree,
	// so the fills run on the worker pool; every iteration writes only its
	// own slots, keeping the arrays identical for any worker count.
	if err := pool.Ranges(ctx, len(parts), s.set.workers, 1, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			f := flats[p]
			sub[p] = make([]int32, f.Len())
			F[p] = make([]int32, f.Len())
			for i := int32(f.Len() - 1); i >= 0; i-- {
				if f.Leaf(i) {
					F[p][i] = leafBound(p, i)
					continue
				}
				best := int32(-1)
				for c := f.FirstChild[i]; c != -1; c = f.NextSibling[c] {
					if F[p][c] > best {
						best = F[p][c]
					}
				}
				F[p][i] = best
			}
		}
	}); err != nil {
		return nil, err
	}

	// applyCredit records that relevant graph id became covered: one credit
	// at its highest diameter ≤ θ ancestor in its HOME shard's tree (credits
	// never cross shards — bounds in other shards merely stay looser, which
	// is sound).
	applyCredit := func(id graph.ID) {
		p := s.set.PartFor(id)
		f := flats[p]
		a := int32(parts[p].LeafIdx(id))
		for q := f.Parents[a]; q != -1 && f.Diameters[q] <= theta; q = f.Parents[q] {
			a = q
		}
		sub[p][a]++
		for n := a; n != -1; n = f.Parents[n] {
			var best int32
			if f.Leaf(n) {
				best = leafBound(p, n)
			} else {
				best = -1
				for c := f.FirstChild[n]; c != -1; c = f.NextSibling[c] {
					if F[p][c] > best {
						best = F[p][c]
					}
				}
			}
			nf := best - sub[p][n]
			if nf == F[p][n] && n != a {
				break // no change propagates further
			}
			F[p][n] = nf
		}
	}

	for len(res.Answer) < k {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Advance every shard's frontier on the worker pool: a DFS over the
		// shard's positive-bound subtree collects its candidate leaves, with
		// the ancestor credit subtractions accumulated on the way down (no
		// per-node ancestor walks). Bounds are frozen during a pick — credits
		// apply only after it completes — so each shard's frontier is
		// independent of the others and of the worker count; only wall time
		// changes. The traversal visit counts land in PQPops, the coordinator's
		// frontier-work measure.
		perShard := make([][]frontierCand, len(parts))
		visits := make([]int, len(parts))
		if err := pool.Ranges(ctx, len(parts), s.set.workers, 1, func(lo, hi int) {
			for p := lo; p < hi; p++ {
				f := flats[p]
				if F[p][0] <= 0 {
					continue
				}
				stack := []frontierFrame{{node: 0, acc: 0}}
				for len(stack) > 0 {
					fr := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					visits[p]++
					if f.Leaf(fr.node) {
						perShard[p] = append(perShard[p], frontierCand{
							bound: F[p][fr.node] - fr.acc,
							node:  fr.node,
							cent:  f.Centroids[fr.node],
						})
						continue
					}
					acc := fr.acc + sub[p][fr.node]
					for c := f.FirstChild[fr.node]; c != -1; c = f.NextSibling[c] {
						if F[p][c]-acc > 0 {
							stack = append(stack, frontierFrame{node: c, acc: acc})
						}
					}
				}
			}
		}); err != nil {
			return nil, err
		}
		// Merge serially into one list ordered by (bound desc, shard, node) —
		// the same total order the coordinator heap used to pop leaves in.
		var list []frontierCand
		for p, cs := range perShard {
			st.PQPops += visits[p]
			for _, c := range cs {
				c.part = int32(p)
				list = append(list, c)
			}
		}
		sort.Slice(list, func(i, j int) bool {
			if list[i].bound != list[j].bound {
				return list[i].bound > list[j].bound
			}
			if list[i].part != list[j].part {
				return list[i].part < list[j].part
			}
			return list[i].node < list[j].node
		})

		best, bestGain := graph.ID(-1), int32(0)
		var bestNbrs []int32 // relevant positions newly covered by best
		// Walk the merged frontier in bound order. Candidates whose bound
		// reaches the best verified gain are verified exactly; bounds equal to
		// the best gain are still explored so that ties resolve toward the
		// lowest graph ID, matching the unsharded search and the baseline
		// greedy.
		for _, c := range list {
			if c.bound < bestGain {
				break
			}
			pos := s.relPos[c.cent]
			if pos < 0 || inAnswer[pos] {
				continue
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			nbrs := memo.Verify(int32(pos))
			gain := int32(len(nbrs))
			if gain > bestGain || (gain == bestGain && gain > 0 && c.cent < best) {
				best, bestGain, bestNbrs = c.cent, gain, nbrs
			}
		}
		if best < 0 || bestGain == 0 {
			break
		}
		inAnswer[s.relPos[best]] = true
		res.Answer = append(res.Answer, best)
		res.Gains = append(res.Gains, int(bestGain))
		for _, pos := range bestNbrs {
			covered.Add(int(pos))
			applyCredit(s.rel[pos])
		}
	}
	res.Covered = covered.Count()
	res.Power = float64(res.Covered) / float64(res.Relevant)
	finish()
	return res, nil
}

// SweepTheta answers the query at every indexed threshold (plus extras). See
// SweepThetaContext.
func (s *coordSession) SweepTheta(k int, extra ...float64) ([]nbindex.ThetaPoint, error) {
	return s.SweepThetaContext(context.Background(), k, extra...)
}

// SweepThetaContext mirrors nbindex's sweep over the coordinator: the shared
// grid plus any extra thresholds, deduplicated ascending, one TopKContext
// each.
func (s *coordSession) SweepThetaContext(ctx context.Context, k int, extra ...float64) ([]nbindex.ThetaPoint, error) {
	if k <= 0 {
		return nil, fmt.Errorf("shard: non-positive k %d", k)
	}
	thetas := append(append([]float64(nil), s.set.grid...), extra...)
	sort.Float64s(thetas)
	out := thetas[:0]
	for i, t := range thetas {
		if i == 0 || t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	thetas = out
	points := make([]nbindex.ThetaPoint, 0, len(thetas))
	for _, theta := range thetas {
		if theta < 0 {
			return nil, fmt.Errorf("shard: negative theta %v in sweep", theta)
		}
		res, err := s.TopKContext(ctx, theta, k)
		if err != nil {
			return nil, err
		}
		points = append(points, nbindex.ThetaPoint{
			Theta:      theta,
			Power:      res.Power,
			CR:         res.CompressionRatio(),
			AnswerSize: len(res.Answer),
		})
	}
	return points, nil
}

// frontierFrame is one DFS frame of a shard's frontier advance: a tree node
// (flat index) with the credit subtractions accumulated from its ancestors,
// so the node's current bound is F[node] − acc without an ancestor walk.
type frontierFrame struct {
	node int32
	acc  int32
}

// frontierCand is one candidate leaf a shard's frontier produced: its current
// gain upper bound and identity. The coordinator merges the per-shard lists
// by (bound desc, part, node) — the same total order the best-first pop
// sequence follows — so the serial verification walk is deterministic for
// any worker count.
type frontierCand struct {
	bound int32
	part  int32
	node  int32
	cent  graph.ID
}
