package metric

import (
	"math"

	"graphrep/internal/ged"
	"graphrep/internal/graph"
)

// decision is the internal detailed outcome of a bounded test: the verdict,
// whether it was reached without a completed exact solve (pruned), and the
// proven interval lo ≤ d ≤ hi (hi is +Inf when no upper bound exists). The
// interval is what Cache memoizes.
type decision struct {
	leq    bool
	pruned bool
	lo, hi float64
}

// decider is implemented by the metrics with a bounded path (Star, Counter,
// Cache) to expose the detailed decision to each other (Cache needs the
// inner interval to memoize it) and to Decide. The contract is strict: the
// verdict equals Distance(a, b) ≤ theta, for every theta — a bounded path
// may be faster, never different, which is what keeps answers byte-identical
// whether or not the bounded kernel is enabled.
type decider interface {
	boundedDecide(a, b graph.ID, theta float64) decision
}

// Decide resolves d(a,b) ≤ theta through m, preferring the bounded path when
// m has one, and additionally reports whether the decision was pruned —
// reached without a completed exact Hungarian solve. It is the one decision
// entry point: the verify loops use it to split QueryStats between
// PrunedDistances and ExactDistances while keeping a single call site.
func Decide(m Metric, a, b graph.ID, theta float64) (leq, pruned bool) {
	d := boundedDecide(m, a, b, theta)
	return d.leq, d.pruned
}

// boundedDecide takes m's bounded path when it has one; for any other Metric
// the exact distance is computed and compared.
func boundedDecide(m Metric, a, b graph.ID, theta float64) decision {
	if mm, ok := m.(decider); ok {
		return mm.boundedDecide(a, b, theta)
	}
	d := m.Distance(a, b)
	return decision{leq: d <= theta, lo: d, hi: d}
}

// PruneStats is the threshold-test breakdown of a Star metric: how many
// bounded decisions each bound stage resolved without a completed Hungarian
// solve, how many bounded decisions needed the full solve (BoundedExact), and
// how many plain Distance computations were issued (ExactValues — always a
// full solve). FullSolves is therefore the number of complete Hungarian
// runs; Pruned the number avoided.
type PruneStats struct {
	// Embedding counts decisions the precomputed filter stage resolved from
	// two cached vectors alone (the max of the padding/size bound and the
	// center+spoke histogram L1 bound; O(dims), no per-pair assignment
	// work). It subsumes the retired size and histogram tiers.
	Embedding int64
	Greedy    int64 // greedy-assignment upper bound (O(n²))

	// RowMin, RowMinSolved and Dual belonged to the retired row-minima and
	// dual-abort tiers and are always 0. They stay only because the
	// end-to-end benchmark module still reads them.
	RowMin, RowMinSolved, Dual int64

	BoundedExact int64
	ExactValues  int64

	// GreedyTried is the adaptive greedy gate's attempt denominator: the
	// decisions on which the greedy stage actually ran. Greedy/GreedyTried
	// is the live success rate the gate weighs against the stage's
	// breakeven; a denominator that stops growing while decisions continue
	// means the gate has retired the stage.
	GreedyTried int64
}

// Pruned returns the decisions resolved without a completed exact solve.
func (p PruneStats) Pruned() int64 { return p.Embedding + p.Greedy }

// FullSolves returns the number of completed Hungarian solves issued.
func (p PruneStats) FullSolves() int64 { return p.BoundedExact + p.ExactValues }

// StageCounter is implemented by metrics that track the PruneStats
// breakdown; the Star metric does, and the engine telemetry exports the
// counts as graphrep_metric_* series.
type StageCounter interface {
	PruneStats() PruneStats
}

// EmbeddingPrimer is implemented by metrics that can adopt precomputed
// per-graph filter embeddings (the default star metric does). The engine
// primes the metric with the per-shard vectors carried by the index — built
// or loaded — so threshold tests on far pairs resolve from the cached
// vectors without ever materializing a star signature.
type EmbeddingPrimer interface {
	PrimeEmbeddings(base graph.ID, embs []*ged.Embedding)
}

// EmbeddingTablePrimer is implemented by metrics that can adopt a per-shard
// embedding table in its encoded form (the default star metric does). An
// engine that opens a mapped v4 index registers the table instead of eagerly
// decoding every vector; the metric decodes records on first use. Decoded
// vectors are identical to eagerly primed ones, so answers and stage
// attribution are independent of the priming path.
type EmbeddingTablePrimer interface {
	PrimeEmbeddingTable(base graph.ID, tab *ged.Table)
}

func (m *starMetric) boundedDecide(a, b graph.ID, theta float64) decision {
	if a == b {
		return decision{leq: 0 <= theta, pruned: true, lo: 0, hi: 0}
	}
	// Embedding-first: with both filter vectors cached (primed from a loaded
	// index, or left behind by earlier sig materializations), a far pair is
	// decided without touching the star signatures at all. The bound is then
	// handed down so the threshold test does not re-scan the vectors.
	// Signatures and vectors are snapshotted in one reader-lock round.
	sa, sb, ea, eb := m.pairState(a, b)
	lb := -1.0
	if ea != nil && eb != nil {
		lb = ea.LowerBound(eb)
		if lb > theta {
			m.stages[ged.StageEmbedding].Add(1)
			return decision{leq: false, pruned: true, lo: lb, hi: math.Inf(1)}
		}
	}
	if sa == nil {
		sa = m.sig(a)
	}
	if sb == nil {
		sb = m.sig(b)
	}
	if lb < 0 {
		lb = sa.Embedding().LowerBound(sb.Embedding())
	}
	tryGreedy := m.greedyGateOpen()
	dec := sa.DistanceAtMostTiers(sb, theta, lb, tryGreedy)
	if tryGreedy && dec.Stage != ged.StageEmbedding {
		m.greedyTried.Add(1)
	}
	m.stages[dec.Stage].Add(1)
	return decision{leq: dec.Leq, pruned: !dec.Exact(), lo: dec.Lo, hi: dec.Hi}
}

// The adaptive greedy gate. The greedy upper bound is the one stage whose
// economics depend on the workload rather than the data alone. A greedy
// success durably prunes one warm-started Hungarian solve, while a failure
// pays the assignment bookkeeping and swap polish on top of the solve it
// failed to avoid — against the measured costs on the reference workload,
// roughly a quarter of a warm solve per attempt, so the stage breaks even
// when about one attempt in four lands. The gate watches the stage's live
// success rate over the decisions that actually ran it and retires the stage
// for the metric's lifetime once, past the metric's warmup (gateWarmupFor at
// construction), the rate sits below that breakeven. Retiring the stage
// never changes a verdict (a skipped greedy success falls through to the
// exact solve, which proves the same answer and memoizes more), so answers
// stay byte-identical; only the stage composition shifts. Once closed the
// gate stays closed: no further attempts run, so the rate that closed it is
// frozen. Reference points: the n=400 workload finishes inside the warmup
// with greedy landing about half the time, so the stage stays live there;
// the n=4000 workload sits near 20% and retires it at the warmup, shedding
// its cost on the decisions it was losing.
const (
	gateWarmupFloor   = 4096
	greedyGateMinRate = 0.25
)

// gateWarmupFor sizes the gate warmup for an n-graph database:
// max(gateWarmupFloor, pairs/256) with pairs = n(n−1)/2. The floor keeps
// small workloads from closing a gate on noise; the pairs/256 term scales
// the observation window with the workload so that on large databases a
// tier's measured rate has settled on a representative mix of pairs — a few
// thousand decisions out of hundreds of millions of candidate pairs is too
// early to retire a tier for the metric's lifetime. The policy is pinned by
// TestGateWarmupPolicy.
func gateWarmupFor(n int) int64 {
	pairs := int64(n) * int64(n-1) / 2
	if w := pairs / 256; w > gateWarmupFloor {
		return w
	}
	return gateWarmupFloor
}

// greedyGateOpen reports whether the greedy tier should still run. Counter
// reads are racy under concurrent decisions — the gate may close a handful of
// decisions earlier or later across runs — but monotonicity keeps the
// end state identical and verdicts never depend on it.
func (m *starMetric) greedyGateOpen() bool {
	tried := m.greedyTried.Load()
	if tried < m.gateWarmup {
		return true
	}
	return float64(m.stages[ged.StageGreedy].Load()) >= greedyGateMinRate*float64(tried)
}

// PruneStats implements StageCounter.
func (m *starMetric) PruneStats() PruneStats {
	return PruneStats{
		Embedding:    m.stages[ged.StageEmbedding].Load(),
		Greedy:       m.stages[ged.StageGreedy].Load(),
		BoundedExact: m.stages[ged.StageExact].Load(),
		ExactValues:  m.exactValues.Load(),
		GreedyTried:  m.greedyTried.Load(),
	}
}

// boundedDecide counts the call as one distance computation (the paper's
// efficiency measure charges threshold tests and value computations alike)
// and delegates the decision to the inner metric.
func (c *Counter) boundedDecide(a, b graph.ID, theta float64) decision {
	c.n.Add(1)
	return boundedDecide(c.inner, a, b, theta)
}

// boundedDecide memoizes intervals: an entry whose interval already decides
// the test answers it as a hit (pruned unless the entry is exact); otherwise
// the inner decision is issued (a miss, keeping Misses == inner
// computations) and the interval it proves is merged into the table,
// tightening it for future calls at any threshold. Exact values always win:
// once lo == hi the entry never widens.
//
// A stored interval that fails to decide means the pair is being probed
// again at a threshold inside its bounds — repeat traffic (θ sweeps walk the
// same pairs through a grid of thresholds). Such a probe promotes the pair:
// it computes the exact distance, so every later test on the pair is a hit
// instead of another partial decision that proves nothing reusable. The
// probe counts as a miss like any other inner computation.
func (c *Cache) boundedDecide(a, b graph.ID, theta float64) decision {
	if a == b {
		return decision{leq: 0 <= theta, pruned: true, lo: 0, hi: 0}
	}
	k := pairKey(a, b)
	sh := c.shard(k)
	sh.mu.RLock()
	e, ok := sh.memo[k]
	sh.mu.RUnlock()
	if ok {
		switch {
		case e.exact():
			c.hits.Add(1)
			return decision{leq: e.lo <= theta, pruned: false, lo: e.lo, hi: e.hi}
		case e.lo > theta:
			c.hits.Add(1)
			return decision{leq: false, pruned: true, lo: e.lo, hi: e.hi}
		case e.hi <= theta:
			c.hits.Add(1)
			return decision{leq: true, pruned: true, lo: e.lo, hi: e.hi}
		default: // an undecided repeat: promote the pair to exact
			c.misses.Add(1)
			d := c.inner.Distance(a, b)
			sh.store(k, d, d)
			return decision{leq: d <= theta, lo: d, hi: d}
		}
	}
	c.misses.Add(1)
	d := boundedDecide(c.inner, a, b, theta)
	sh.store(k, d.lo, d.hi)
	return d
}

// ExactOnly hides any bounded-decision capability of m: the returned metric
// implements only plain Metric, so every threshold test falls back to a full
// Distance computation. It is the kernel kill switch behind
// Options.DisableBoundedKernel, used for baseline benchmarks and for
// bisecting any suspected kernel difference (there must never be one —
// answers are byte-identical either way).
func ExactOnly(m Metric) Metric { return exactOnly{inner: m} }

type exactOnly struct{ inner Metric }

// Distance implements Metric.
func (e exactOnly) Distance(a, b graph.ID) float64 { return e.inner.Distance(a, b) }

// Compile-time checks: the star metric and its wrappers keep the bounded
// path.
var (
	_ decider      = (*starMetric)(nil)
	_ decider      = (*Counter)(nil)
	_ decider      = (*Cache)(nil)
	_ StageCounter = (*starMetric)(nil)
)
