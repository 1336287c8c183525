package nbindex

import (
	"graphrep/internal/telemetry"
)

// workBuckets covers the per-query work counters (PQ pops, verified leaves,
// candidate scans, pass pairs, exact distances), which range from a handful on tiny
// relevant sets to hundreds of thousands on large ones.
var workBuckets = telemetry.ExponentialBuckets(1, 4, 10) // 1 … 262144

// Telemetry folds the QueryStats of every completed TopK call into
// cumulative per-phase histograms, giving a running picture of how hard the
// index is working: how many priority-queue pops, verified leaves, candidate
// scans, and exact distance computations queries cost — the paper's §8
// efficiency measures, aggregated across the process lifetime instead of
// per query. All updates are atomic; one Telemetry may be shared by any
// number of concurrent sessions.
type Telemetry struct {
	Queries         *telemetry.Counter
	PQPops          *telemetry.Histogram
	VerifiedLeaves  *telemetry.Histogram
	CandidateScans  *telemetry.Histogram
	PassPairs       *telemetry.Histogram
	ExactDistances  *telemetry.Histogram
	PrunedDistances *telemetry.Histogram
}

// NewTelemetry registers the nbindex metric family on r and returns the
// aggregator. Metric names are fixed (graphrep_nbindex_*), so registering twice on
// one registry fails with telemetry.ErrDuplicate.
func NewTelemetry(r *telemetry.Registry) (*Telemetry, error) {
	t := &Telemetry{}
	var err error
	if t.Queries, err = r.NewCounter("graphrep_nbindex_queries_total",
		"Completed TopK calls across all sessions."); err != nil {
		return nil, err
	}
	if t.PQPops, err = r.NewHistogram("graphrep_nbindex_pq_pops",
		"Priority-queue pops per TopK call (Alg. 2 search effort).", workBuckets); err != nil {
		return nil, err
	}
	if t.VerifiedLeaves, err = r.NewHistogram("graphrep_nbindex_verified_leaves",
		"Leaves exactly verified per TopK call (candidates surviving the bound pruning), memoized re-verifications included.", workBuckets); err != nil {
		return nil, err
	}
	if t.CandidateScans, err = r.NewHistogram("graphrep_nbindex_candidate_scans",
		"Vantage candidates handed to first verifications per TopK call (Theorem 5 candidate sets minus covered graphs), counted at each graph's first verification only.", workBuckets); err != nil {
		return nil, err
	}
	if t.PassPairs, err = r.NewHistogram("graphrep_nbindex_pass_pairs",
		"Pairs of relevant graphs the vantage pass tested per TopK call: each unordered pair with either graph inside the other's first-space window, once.", workBuckets); err != nil {
		return nil, err
	}
	if t.ExactDistances, err = r.NewHistogram("graphrep_nbindex_exact_distances",
		"Exact distance computations per TopK call (the paper's central cost measure).", workBuckets); err != nil {
		return nil, err
	}
	if t.PrunedDistances, err = r.NewHistogram("graphrep_nbindex_pruned_distances",
		"Candidate threshold tests per TopK call resolved by the bounded kernel without a full solve.", workBuckets); err != nil {
		return nil, err
	}
	return t, nil
}

// Observe folds one query's stats in. Nil-safe so the query path needs no
// branch at the call site beyond the method call itself. Exported for the
// internal/shard coordinator, whose scatter-gather TopK reports through the
// same aggregator as single-index sessions.
func (t *Telemetry) Observe(st QueryStats) {
	if t == nil {
		return
	}
	t.Queries.Inc()
	t.PQPops.Observe(float64(st.PQPops))
	t.VerifiedLeaves.Observe(float64(st.VerifiedLeaves))
	t.CandidateScans.Observe(float64(st.CandidateScans))
	t.PassPairs.Observe(float64(st.PassPairs))
	t.ExactDistances.Observe(float64(st.ExactDistances))
	t.PrunedDistances.Observe(float64(st.PrunedDistances))
}

// Totals returns the cumulative sums across all observed queries, for
// consistency checks against summing per-query QueryStats by hand.
func (t *Telemetry) Totals() QueryStats {
	if t == nil {
		return QueryStats{}
	}
	return QueryStats{
		PQPops:          int(t.PQPops.Sum()),
		VerifiedLeaves:  int(t.VerifiedLeaves.Sum()),
		CandidateScans:  int(t.CandidateScans.Sum()),
		PassPairs:       int(t.PassPairs.Sum()),
		ExactDistances:  int(t.ExactDistances.Sum()),
		PrunedDistances: int(t.PrunedDistances.Sum()),
	}
}

// SetTelemetry attaches an aggregator to the index: every TopK call on every
// session of this index (existing and future) folds its QueryStats in. Pass
// nil to detach. Safe to call concurrently with queries; a query that is
// already past its final stats store reports to whichever aggregator was
// attached when it finished.
func (ix *Index) SetTelemetry(t *Telemetry) { ix.tel.Store(t) }

// Telemetry returns the attached aggregator, or nil.
func (ix *Index) Telemetry() *Telemetry { return ix.tel.Load() }
