package graphrep_test

import (
	"strings"
	"testing"

	"graphrep"
)

// TestOpenIssuesOnlyVantageDistances pins the build's distance budget: the
// default θ grid comes from the vantage rows, so Open computes those rows and
// nothing else. Each VP's row holds n distances, less its own entry, which
// costs nothing, and each VP–VP pair is computed once and found in the memo
// from the other VP's row: |V|·n − |V| − |V|(|V|−1)/2 fresh distances, at
// any shard count. One worker keeps concurrent misses on one pair, which
// would both count, out of the figure.
func TestOpenIssuesOnlyVantageDistances(t *testing.T) {
	const n, vps = 120, 6
	db, err := graphrep.GenerateDataset("dud", n, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(vps*n - vps - vps*(vps-1)/2)
	for _, shards := range []int{1, 3} {
		engine, err := graphrep.Open(db, graphrep.Options{Seed: 7, NumVPs: vps, Workers: 1, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if got := engine.Telemetry().Snapshot().DistanceComputations; got != want {
			t.Errorf("shards=%d: Open computed %d distances, want the vantage rows' %d", shards, got, want)
		}
	}
}

// Engine.Telemetry() aggregates must equal the sum of per-query QueryStats
// in a sequential run — the acceptance criterion tying the telemetry layer
// to the per-session measurements it folds in.
func TestEngineTelemetryMatchesQueryStats(t *testing.T) {
	db, err := graphrep.GenerateDataset("dud", 150, 3)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := graphrep.Open(db, graphrep.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	tel := engine.Telemetry()
	if tel == nil {
		t.Fatal("Telemetry() = nil")
	}
	base := tel.Snapshot()
	if base.Queries != 0 {
		t.Fatalf("fresh engine already recorded %d queries", base.Queries)
	}
	if base.DistanceComputations == 0 {
		t.Error("index construction recorded no distance computations")
	}

	sess, err := engine.NewSession(graphrep.FirstQuartileRelevance(db, nil))
	if err != nil {
		t.Fatal(err)
	}
	var want graphrep.QueryStats
	queries := 0
	for _, theta := range []float64{4, 8, 12, 8, 2} {
		for _, k := range []int{3, 7} {
			if _, err := sess.TopK(theta, k); err != nil {
				t.Fatal(err)
			}
			st := sess.LastStats()
			want.PQPops += st.PQPops
			want.VerifiedLeaves += st.VerifiedLeaves
			want.CandidateScans += st.CandidateScans
			want.PassPairs += st.PassPairs
			want.ExactDistances += st.ExactDistances
			want.PrunedDistances += st.PrunedDistances
			queries++
		}
	}
	// TopKRepresentative goes through an internal session and must be
	// aggregated identically.
	if _, err := engine.TopKRepresentative(graphrep.Query{
		Relevance: graphrep.FirstQuartileRelevance(db, nil), Theta: 10, K: 5,
	}); err != nil {
		t.Fatal(err)
	}
	queries++

	snap := tel.Snapshot()
	if snap.Queries != int64(queries) {
		t.Errorf("Queries = %d, want %d", snap.Queries, queries)
	}
	got := snap.QueryTotals
	// The one TopKRepresentative call's stats aren't observable via
	// LastStats, so compare against the session-summed floor per field and
	// the exact total for the histogram count.
	if got.PQPops < want.PQPops || got.VerifiedLeaves < want.VerifiedLeaves ||
		got.CandidateScans < want.CandidateScans || got.PassPairs < want.PassPairs ||
		got.ExactDistances < want.ExactDistances || got.PrunedDistances < want.PrunedDistances {
		t.Errorf("QueryTotals = %+v, want at least %+v", got, want)
	}

	// Distance computations: every exact distance a query issues goes
	// through the counting layer, so the counter must have grown by at
	// least the queries' exact-distance total (cache hits keep it from
	// being an equality).
	if grown := snap.DistanceComputations - base.DistanceComputations; grown > int64(got.ExactDistances) {
		t.Errorf("distance computations grew %d, more than the %d the queries issued", grown, got.ExactDistances)
	}
	if snap.CacheHits+snap.CacheMisses == 0 {
		t.Error("cache recorded no traffic")
	}
	if snap.CacheMisses != snap.DistanceComputations {
		t.Errorf("cache misses %d != distance computations %d (default metric: every miss is a computation)",
			snap.CacheMisses, snap.DistanceComputations)
	}
	if snap.CacheEntries == 0 {
		t.Error("cache holds no entries")
	}

	// The exact-session equality check: a second engine where ONLY session
	// queries run (no TopKRepresentative), totals must match exactly.
	engine2, err := graphrep.Open(db, graphrep.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	sess2, err := engine2.NewSession(graphrep.FirstQuartileRelevance(db, nil))
	if err != nil {
		t.Fatal(err)
	}
	var want2 graphrep.QueryStats
	for _, theta := range []float64{4, 8, 12} {
		if _, err := sess2.TopK(theta, 5); err != nil {
			t.Fatal(err)
		}
		st := sess2.LastStats()
		want2.PQPops += st.PQPops
		want2.VerifiedLeaves += st.VerifiedLeaves
		want2.CandidateScans += st.CandidateScans
		want2.PassPairs += st.PassPairs
		want2.ExactDistances += st.ExactDistances
		want2.PrunedDistances += st.PrunedDistances
	}
	snap2 := engine2.Telemetry().Snapshot()
	if snap2.QueryTotals != want2 {
		t.Errorf("QueryTotals = %+v, want exactly %+v", snap2.QueryTotals, want2)
	}
	if snap2.Queries != 3 {
		t.Errorf("Queries = %d, want 3", snap2.Queries)
	}
}

// The engine's registry renders the full metric family in exposition format.
func TestEngineTelemetryExposition(t *testing.T) {
	db, err := graphrep.GenerateDataset("dud", 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := graphrep.Open(db, graphrep.Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.TopKRepresentative(graphrep.Query{
		Relevance: graphrep.FirstQuartileRelevance(db, nil), Theta: 8, K: 3,
	}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := engine.Telemetry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range []string{
		"graphrep_distance_computations_total",
		"graphrep_distance_cache_hits_total",
		"graphrep_distance_cache_misses_total",
		"graphrep_distance_cache_entries",
		"graphrep_graphs 100",
		"graphrep_index_bytes",
		"graphrep_nbindex_queries_total 1",
		"graphrep_nbindex_pq_pops_bucket",
		"graphrep_nbindex_exact_distances_count 1",
		"graphrep_nbindex_pruned_distances_count 1",
		"graphrep_metric_prune_embedding_total",
		"graphrep_metric_prune_greedy_total",
		"graphrep_metric_bounded_exact_total",
		"graphrep_metric_greedy_tried_total",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("exposition missing %q:\n%s", name, out)
		}
	}
	// The retired row-minima and dual-abort tiers left no series behind.
	for _, name := range []string{
		"graphrep_metric_prune_rowmin_total",
		"graphrep_metric_rowmin_solved_total",
		"graphrep_metric_prune_dual_total",
		"graphrep_metric_dual_armed_total",
	} {
		if strings.Contains(out, name) {
			t.Errorf("exposition still carries the retired series %q", name)
		}
	}
	// The bounded kernel must actually have pruned something on the query
	// path: the per-query pruned counter and the cascade stage totals agree
	// that work was avoided.
	snap := engine.Telemetry().Snapshot()
	if snap.Prune.Pruned() == 0 {
		t.Error("bound cascade recorded no pruned decisions")
	}
}

// A custom metric gets the counting layer but no cache.
func TestTelemetryCustomMetric(t *testing.T) {
	db, err := graphrep.GenerateDataset("dud", 60, 9)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := graphrep.Open(db, graphrep.Options{
		Seed:   2,
		Metric: graphrep.MetricFunc(func(a, b graphrep.ID) float64 { return graphrep.Distance(db.Graph(a), db.Graph(b)) }),
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := engine.Telemetry().Snapshot()
	if snap.DistanceComputations == 0 {
		t.Error("custom metric distances not counted")
	}
	if snap.CacheHits != 0 || snap.CacheMisses != 0 || snap.CacheEntries != 0 {
		t.Errorf("custom metric reported cache traffic: %+v", snap)
	}
	var sb strings.Builder
	if err := engine.Telemetry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "graphrep_distance_cache_hits_total") {
		t.Error("cache metrics registered without a cache")
	}
	if strings.Contains(sb.String(), "graphrep_metric_prune_embedding_total") {
		t.Error("bound-cascade metrics registered without the default metric")
	}
	if snap.Prune != (graphrep.PruneStats{}) {
		t.Errorf("custom metric reported cascade stats: %+v", snap.Prune)
	}
}
