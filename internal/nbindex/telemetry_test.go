package nbindex

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"graphrep/internal/graph"
	"graphrep/internal/telemetry"
)

func TestTelemetryAggregatesQueryStats(t *testing.T) {
	db, m := clusteredDB(t, 4, 10, 11)
	ix := buildIndex(t, db, m, []float64{2, 4, 8, 16}, 12)
	reg := telemetry.NewRegistry()
	tel, err := NewTelemetry(reg)
	if err != nil {
		t.Fatal(err)
	}
	ix.SetTelemetry(tel)
	if ix.Telemetry() != tel {
		t.Fatal("Telemetry() did not return the attached aggregator")
	}
	sess := ix.NewSession(func(f []float64) bool { return f[0] > 0.3 })
	var want QueryStats
	thetas := []float64{2, 5, 10, 0}
	for _, theta := range thetas {
		if _, err := sess.TopK(theta, 4); err != nil {
			t.Fatal(err)
		}
		st := sess.LastStats()
		want.PQPops += st.PQPops
		want.VerifiedLeaves += st.VerifiedLeaves
		want.CandidateScans += st.CandidateScans
		want.PassPairs += st.PassPairs
		want.ExactDistances += st.ExactDistances
		want.PrunedDistances += st.PrunedDistances
	}
	if got := tel.Queries.Value(); got != int64(len(thetas)) {
		t.Errorf("queries = %d, want %d", got, len(thetas))
	}
	// Folding per-query stats into the histograms must equal summing the
	// per-query stats by hand — the acceptance criterion for aggregation.
	if got := tel.Totals(); !reflect.DeepEqual(got, want) {
		t.Errorf("totals = %+v, want %+v", got, want)
	}
	if tel.PQPops.Count() != int64(len(thetas)) {
		t.Errorf("histogram observations = %d, want %d", tel.PQPops.Count(), len(thetas))
	}
	// The metrics render under their nbindex_* names.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"graphrep_nbindex_queries_total", "graphrep_nbindex_pq_pops_count",
		"graphrep_nbindex_verified_leaves_count", "graphrep_nbindex_candidate_scans_count",
		"graphrep_nbindex_pass_pairs_count", "graphrep_nbindex_exact_distances_sum",
	} {
		if !strings.Contains(sb.String(), name) {
			t.Errorf("exposition missing %s", name)
		}
	}
	// Registering the family twice on one registry fails cleanly.
	if _, err := NewTelemetry(reg); !errors.Is(err, telemetry.ErrDuplicate) {
		t.Errorf("second NewTelemetry: err = %v, want ErrDuplicate", err)
	}
	// Detaching stops aggregation.
	ix.SetTelemetry(nil)
	if _, err := sess.TopK(5, 4); err != nil {
		t.Fatal(err)
	}
	if got := tel.Queries.Value(); got != int64(len(thetas)) {
		t.Errorf("queries after detach = %d, want %d", got, len(thetas))
	}
}

// A zero-relevant query still counts as a query and records zero work.
func TestTelemetryEmptyRelevantSet(t *testing.T) {
	db, m := clusteredDB(t, 2, 5, 13)
	ix := buildIndex(t, db, m, []float64{4}, 14)
	tel, err := NewTelemetry(telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	ix.SetTelemetry(tel)
	sess := ix.NewSession(func([]float64) bool { return false })
	if _, err := sess.TopK(4, 3); err != nil {
		t.Fatal(err)
	}
	if tel.Queries.Value() != 1 {
		t.Errorf("queries = %d, want 1", tel.Queries.Value())
	}
	if got := tel.Totals(); got != (QueryStats{}) {
		t.Errorf("totals = %+v, want zero", got)
	}
}

// TopK must be safe and deterministic under concurrent callers: one shared
// session queried from many goroutines at many thresholds must return
// exactly the sequential answers, and the shared telemetry must not lose
// updates. Run with -race.
func TestTopKConcurrent(t *testing.T) {
	db, m := clusteredDB(t, 5, 12, 21)
	ix := buildIndex(t, db, m, []float64{2, 4, 8, 16, 64}, 22)
	tel, err := NewTelemetry(telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	ix.SetTelemetry(tel)
	relevance := func(f []float64) bool { return f[0] > 0.3 }
	sess := ix.NewSession(relevance)
	thetas := []float64{1, 3, 4, 6.5, 10, 20, 100}
	// Sequential ground truth per θ.
	want := make(map[float64]string, len(thetas))
	for _, theta := range thetas {
		res, err := sess.TopK(theta, 5)
		if err != nil {
			t.Fatal(err)
		}
		want[theta] = resultKey(res.Answer, res.Gains, res.Covered)
	}
	base := tel.Queries.Value()

	const workers, iters = 8, 6
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Half the workers share sess; the rest get private sessions,
			// exercising both sharing modes concurrently.
			s := sess
			if w%2 == 1 {
				s = ix.NewSession(relevance)
			}
			for i := 0; i < iters; i++ {
				theta := thetas[(w+i)%len(thetas)]
				res, err := s.TopK(theta, 5)
				if err != nil {
					errs <- err
					return
				}
				if got := resultKey(res.Answer, res.Gains, res.Covered); got != want[theta] {
					t.Errorf("worker %d θ=%v: %s, want %s", w, theta, got, want[theta])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := tel.Queries.Value() - base; got != workers*iters {
		t.Errorf("concurrent queries recorded = %d, want %d", got, workers*iters)
	}
}

// resultKey flattens an answer into a comparable string.
func resultKey(answer []graph.ID, gains []int, covered int) string {
	return fmt.Sprintf("%v|%v|%d", answer, gains, covered)
}
