package ged

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"graphrep/internal/assignment"
	"graphrep/internal/graph"
)

// StarDistance computes the star-matching distance between g1 and g2: both
// graphs are decomposed into their vertex stars, the star multisets are
// padded with empty stars to equal cardinality, and the minimum-cost star
// assignment (Hungarian algorithm) is returned.
//
// The ground cost between two stars is
//
//	centerCost(s1,s2) + |spokes(s1) Δ spokes(s2)|
//
// with centerCost the discrete metric on center labels and Δ the multiset
// symmetric difference; the cost against the padding star ε is 1 + degree.
// Both pieces are metrics on the extended star space, and the minimum-cost
// matching between equal-cardinality multisets under a metric ground cost is
// itself a metric — so StarDistance satisfies the triangle inequality
// exactly, which Theorems 3–8 of the paper rely on.
//
// Shared stars cancel before the assignment. Let π be an optimal bijection
// of the padded multisets A and B, and let a ∈ A and b ∈ B be the same star,
// with π(a) = y and π(x) = b. Reassigning a → b and x → y costs
//
//	c(a,b) + c(x,y) = c(x,y) ≤ c(x,a) + c(a,y) = c(x,b) + c(a,y)
//
// — the triangle inequality of the metric c on the extended star space, with
// c(a,b) = 0 — which is no more than before. So some optimal bijection matches
// a to b, and the rest of it is optimal for what remains. Repeating the swap,
// the distance equals the assignment over A and B with min(count_A, count_B)
// copies of every star type removed, padded as before: cancellation removes
// stars from both sides alike, so the padding count |n1 − n2| is unchanged.
// The pairs a query tests share all but a few of their stars, so the kernel
// fills and solves a matrix of a handful of rows where the full one has a row
// per vertex.
//
// Every ground cost is a small non-negative integer, so all arithmetic in the
// kernel — including the threshold test below — is exact in float64. That
// integrality is what makes DistanceAtMost(b, τ) equivalent to Distance(b) ≤ τ
// bit for bit.
//
// StarDistance is the default database distance d(g,g') of this library and
// corresponds to the mapping distance of the paper's GED citation [28].
func StarDistance(g1, g2 *graph.Graph) float64 {
	p1, p2 := packStars(g1.Stars()), packStars(g2.Stars())
	return packedDistance(&p1, &p2)
}

// StarSig is a precomputed star decomposition, used to amortize the
// decomposition cost when one graph participates in many distance
// computations (as every pivot, centroid, and vantage point does). It also
// carries the graph's filter Embedding, which powers the constant-per-
// dimension lower bound that opens DistanceAtMost.
type StarSig struct {
	emb  *Embedding
	pack starPack
}

// starPack is a flat, cache-friendly rendering of a star decomposition: star
// i's spokes are keys[off[i]:off[i+1]], each spoke packed into one uint64
// (edge label high, leaf label low — numeric key order equals the
// (EdgeLabel, LeafLabel) spoke order, so each run stays sorted), with the
// center labels in their own dense array. Merging two runs of packed keys
// replaces the struct-by-struct spoke comparison — one integer compare per
// step, no pointer chasing through per-star slices.
//
// The stars stay in the graph's vertex order, and the residual cost matrix is
// filled in that order. order is the permutation that sorts them by (center,
// spoke-key run), ties by vertex; the cancelling merge walks it. Only the
// permutation is sorted, not the matrix: counting the Hungarian's inner-loop
// column visits over the distances from 8 random graphs to the other 999 of
// a dud corpus (n = 1000, seed 1), the full matrices took 27.6 M, a residual
// sorted into the matrix 31.5 M (+14%) and the vertex-order residual 26.8 M
// (−3%).
type starPack struct {
	keys    []uint64
	off     []int32
	centers []uint32
	order   []int32
}

func packStars(stars []graph.Star) starPack {
	total := 0
	for i := range stars {
		total += len(stars[i].Spokes)
	}
	p := starPack{
		keys:    make([]uint64, 0, total),
		off:     make([]int32, len(stars)+1),
		centers: make([]uint32, len(stars)),
		order:   make([]int32, len(stars)),
	}
	for i := range stars {
		p.centers[i] = uint32(stars[i].Center)
		for _, sp := range stars[i].Spokes {
			p.keys = append(p.keys, uint64(sp.EdgeLabel)<<32|uint64(sp.LeafLabel))
		}
		p.off[i+1] = int32(len(p.keys))
		p.order[i] = int32(i)
	}
	slices.SortFunc(p.order, func(x, y int32) int {
		if c := compareStars(&p, x, &p, y); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	return p
}

// compareStars orders star i of p against star j of q by center label, then
// lexicographically by spoke-key run; 0 means they are the same star.
func compareStars(p *starPack, i int32, q *starPack, j int32) int {
	if c := cmp.Compare(p.centers[i], q.centers[j]); c != 0 {
		return c
	}
	return slices.Compare(p.keys[p.off[i]:p.off[i+1]], q.keys[q.off[j]:q.off[j+1]])
}

// NewStarSig precomputes the star decomposition of g along with its filter
// embedding.
func NewStarSig(g *graph.Graph) *StarSig {
	return NewStarSigWithEmbedding(g, nil)
}

// NewStarSigWithEmbedding precomputes the star decomposition of g but adopts
// the given embedding instead of recomputing it — the load path hands the
// per-shard vectors persisted in the index container straight to the metric.
// emb must be g's embedding (they are a pure function of the graph); a nil
// emb falls back to computing it.
func NewStarSigWithEmbedding(g *graph.Graph, emb *Embedding) *StarSig {
	stars := g.Stars()
	if emb == nil {
		emb = newEmbeddingFromStars(stars)
	}
	return &StarSig{emb: emb, pack: packStars(stars)}
}

// Embedding returns the signature's filter vector.
func (a *StarSig) Embedding() *Embedding { return a.emb }

// Distance computes the star-matching distance between two signatures,
// solving only the residual left after the shared stars cancel (see
// StarDistance). The solve runs on pooled scratch, so steady-state calls
// allocate nothing.
func (a *StarSig) Distance(b *StarSig) float64 {
	return packedDistance(&a.pack, &b.pack)
}

func packedDistance(p1, p2 *starPack) float64 {
	sc := residualCost(p1, p2)
	total := sc.solver.Total(sc.cost)
	putScratch(sc)
	return total
}

// Stage identifies where the bounded threshold test terminated.
type Stage uint8

const (
	// StageEmbedding: pruned by the precomputed-embedding lower bound — the
	// max of the padding/size bound (O(1)) and the center+spoke histogram L1
	// bound (O(dims)), both read from the two cached filter vectors with no
	// per-pair assignment work. Subsumes the retired size and histogram
	// tiers (Embedding.LowerBound is ≥ both, always).
	StageEmbedding Stage = iota
	// StageGreedy: decided ≤ τ by the swap-polished greedy-assignment upper
	// bound (O(n²)).
	StageGreedy
	// StageExact: the solve ran to completion; Lo == Hi == Distance.
	StageExact
	numStages
)

// NumStages is the number of stages, for sizing per-stage counters.
const NumStages = int(numStages)

// String names the stage for stats output.
func (s Stage) String() string {
	switch s {
	case StageEmbedding:
		return "embedding"
	case StageGreedy:
		return "greedy"
	case StageExact:
		return "exact"
	}
	return "unknown"
}

// Decision is the outcome of DistanceAtMost: the threshold verdict plus the
// distance interval [Lo, Hi] proven along the way (Hi is +Inf when no upper
// bound was established). Lo ≤ Distance ≤ Hi always holds, and Leq is false
// only when Lo > τ, true only when Hi ≤ τ. The interval is exact (Lo == Hi)
// at StageExact, and at StageGreedy when the greedy bound meets the lower
// one, as it does for an empty residual.
type Decision struct {
	Leq   bool
	Stage Stage
	Lo    float64
	Hi    float64
}

// Exact reports whether the test computed the exact distance — the interval
// collapsed to a point.
func (d Decision) Exact() bool { return d.Lo == d.Hi }

// DistanceAtMost decides Distance(a,b) ≤ tau in three stages, running the
// exact Hungarian solve only when neither bound is conclusive: the
// precomputed-embedding lower bound, then the greedy upper bound, then the
// warm-started exact solve. The last two run on the residual left after the
// shared stars cancel (see StarDistance), whose assignment has the same
// optimum as the full one. Because every ground cost is a non-negative
// integer, the decision equals Distance(a,b) ≤ tau exactly, for every tau.
func (a *StarSig) DistanceAtMost(b *StarSig, tau float64) Decision {
	return a.DistanceAtMostTiers(b, tau, a.emb.LowerBound(b.emb), true)
}

// DistanceAtMostTiers is DistanceAtMost for callers that already hold the
// embedding lower bound of the pair (the metric layer computes it from the
// cached vectors before deciding whether to materialize the signatures;
// emblo must equal a.Embedding().LowerBound(b.Embedding())), under an
// explicit greedy policy: tryGreedy enables the greedy upper-bound stage.
// Disabling it never changes a verdict — a skipped greedy success falls
// through to the exact solve, which proves the same answer with Lo == Hi.
// The metric layer drives the flag from its adaptive gate, which retires the
// stage once its measured success rate on the live workload drops below its
// solve-cost breakeven (see metric's greedyGateMinRate): on workloads
// dominated by far pairs the upper bound almost never lands.
//
// The greedy and exact stages see only the residual stars. A pair whose
// star multisets are equal leaves an empty residual: its 0×0 greedy
// assignment costs 0 ≤ tau and decides at StageGreedy with Lo == Hi == 0, or
// the 0×0 solve does so at StageExact when greedy is off.
func (a *StarSig) DistanceAtMostTiers(b *StarSig, tau, emblo float64, tryGreedy bool) Decision {
	// Stage 1 — embedding filter: the max of the size/padding bound and the
	// center+spoke histogram L1 bound, straight off the cached vectors. It
	// runs before the cancelling merge, so far pairs still exit in O(1).
	if emblo > tau {
		return Decision{Leq: false, Stage: StageEmbedding, Lo: emblo, Hi: math.Inf(1)}
	}

	// Stage 2 — cancel the shared stars and fill the residual cost matrix,
	// then one fused scan records each row's minimum (the warm start below
	// needs them) while building the greedy row-by-row assignment from the
	// same cell reads. Any feasible assignment bounds the optimum from above,
	// so greedy (with swap polish, exiting the moment the running total
	// reaches τ) ≤ τ already proves the answer. The row-minima sum bounds the
	// optimum from below; when it exceeds τ the scan skips the polish, since
	// no assignment can then reach τ. That miss still needs the solve: in a θ
	// sweep a pair whose bound only just clears τ is re-probed at a nearby
	// higher threshold, and the exact value the solve memoizes answers every
	// such probe.
	sc := residualCost(&a.pack, &b.pack)
	if tryGreedy {
		ub, rowSum := sc.solver.UpperBoundAtMostWithMins(sc.cost, tau, sc.rowMin)
		if ub <= tau {
			putScratch(sc)
			return Decision{Leq: true, Stage: StageGreedy, Lo: math.Max(emblo, rowSum), Hi: ub}
		}
	} else {
		rowMins(sc)
	}

	// Stage 3 — the exact solve, warm-started from the row minima the scan
	// already paid for (see assignment.TotalWarm): they seed the solver's
	// row-reduction duals and its zero-reduced-cost pre-matching.
	total := sc.solver.TotalWarm(sc.cost, sc.rowMin)
	putScratch(sc)
	return Decision{Leq: total <= tau, Stage: StageExact, Lo: total, Hi: total}
}

// starScratch is the pooled per-solve arena: the flat cost matrix, the
// per-row minima that warm-start the solve, the cancellation buffers, plus
// the assignment solver's own scratch. One scratch serves one solve at a
// time; concurrency gets distinct instances from the pool.
type starScratch struct {
	flat   []float64
	cost   [][]float64
	rowMin []float64
	// rows and cols list the residual stars of the two packs in vertex
	// order; gone marks the cancelled ones, the first pack's stars then the
	// second's.
	rows, cols []int32
	gone       []bool
	solver     *assignment.Solver
}

var starPool = sync.Pool{
	New: func() any { return &starScratch{solver: assignment.NewSolver()} },
}

// residualCost takes a scratch from the pool, cancels the stars p1 and p2
// share, and fills sc.cost with the padded residual's n×n ground costs.
func residualCost(p1, p2 *starPack) *starScratch {
	sc := starPool.Get().(*starScratch)
	n := sc.cancelShared(p1, p2)
	if cap(sc.flat) < n*n {
		sc.flat = make([]float64, n*n)
	}
	sc.flat = sc.flat[:n*n]
	if cap(sc.cost) < n {
		sc.cost = make([][]float64, n)
	}
	sc.cost = sc.cost[:n]
	for i := range sc.cost {
		sc.cost[i] = sc.flat[i*n : (i+1)*n : (i+1)*n]
	}
	if cap(sc.rowMin) < n {
		sc.rowMin = make([]float64, n)
	}
	sc.rowMin = sc.rowMin[:n]
	fillCost(sc, p1, p2)
	return sc
}

func putScratch(sc *starScratch) { starPool.Put(sc) }

// cancelShared walks the two packs' sorted permutations in one merge and
// cancels each star they share, counted with multiplicity: a star held three
// times by p1 and once by p2 cancels once. It leaves the residual stars in
// sc.rows (p1) and sc.cols (p2), in vertex order, and returns the padded
// residual size max(len(rows), len(cols)).
func (sc *starScratch) cancelShared(p1, p2 *starPack) int {
	n1, n2 := len(p1.centers), len(p2.centers)
	if cap(sc.gone) < n1+n2 {
		sc.gone = make([]bool, n1+n2)
	}
	gone := sc.gone[:n1+n2]
	clear(gone)
	gone1, gone2 := gone[:n1], gone[n1:]
	for i, j := 0, 0; i < n1 && j < n2; {
		a, b := p1.order[i], p2.order[j]
		switch c := compareStars(p1, a, p2, b); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			gone1[a], gone2[b] = true, true
			i++
			j++
		}
	}
	sc.rows = appendResidual(sc.rows[:0], gone1)
	sc.cols = appendResidual(sc.cols[:0], gone2)
	return max(len(sc.rows), len(sc.cols))
}

// appendResidual appends the indices of the stars not marked gone.
func appendResidual(dst []int32, gone []bool) []int32 {
	for v, g := range gone {
		if !g {
			dst = append(dst, int32(v))
		}
	}
	return dst
}

// fillCost populates the n×n ground-cost matrix of the padded residual:
// row i is p1's star sc.rows[i] and column j is p2's star sc.cols[j], with
// padding stars ε past either list's end. Only the residual is filled, so a
// near pair costs a few rows where the full matrix has one per vertex.
func fillCost(sc *starScratch, p1, p2 *starPack) {
	n, nc := len(sc.cost), len(sc.cols)
	for i, row := range sc.cost {
		if i >= len(sc.rows) {
			// Padding row: cost against star j is 1 + degree(j), 0 against a
			// padding column.
			for j, v := range sc.cols {
				row[j] = 1 + float64(p2.off[v+1]-p2.off[v])
			}
			for j := nc; j < n; j++ {
				row[j] = 0
			}
			continue
		}
		u := sc.rows[i]
		ac := p1.centers[u]
		ak := p1.keys[p1.off[u]:p1.off[u+1]]
		for j, v := range sc.cols {
			row[j] = packedPairCost(ac, ak, p2.centers[v], p2.keys[p2.off[v]:p2.off[v+1]])
		}
		for j := nc; j < n; j++ {
			row[j] = 1 + float64(len(ak))
		}
	}
}

// rowMins stores each row's minimum of the just-filled (cache-resident) cost
// matrix in sc.rowMin for the warm-started solve. It is the greedy-bypassed
// counterpart of the fused scan in assignment.UpperBoundAtMostWithMins: when
// the adaptive gate has retired the greedy stage, this dedicated pass runs at
// memory speed with none of greedy's assignment bookkeeping.
func rowMins(sc *starScratch) {
	for i, row := range sc.cost {
		m := row[0]
		for _, c := range row[1:] {
			if c < m {
				m = c
			}
		}
		sc.rowMin[i] = m
	}
}

// packedPairCost is the metric ground cost between two non-padding stars in
// packed form: the discrete metric on center labels plus the multiset
// symmetric difference |A Δ B| of the sorted spoke-key runs.
func packedPairCost(centerA uint32, ka []uint64, centerB uint32, kb []uint64) float64 {
	c := 0.0
	if centerA != centerB {
		c = 1
	}
	i, j, common := 0, 0, 0
	for i < len(ka) && j < len(kb) {
		x, y := ka[i], kb[j]
		if x == y {
			common++
			i++
			j++
		} else if x < y {
			i++
		} else {
			j++
		}
	}
	return c + float64(len(ka)+len(kb)-2*common)
}
