package nbindex

import (
	"math/rand"
	"reflect"
	"testing"

	"graphrep/internal/core"
	"graphrep/internal/ged"
	"graphrep/internal/graph"
	"graphrep/internal/metric"
)

// Build an index on a prefix of a clustered database, insert the rest one by
// one, and check that queries through the grown index match the baseline
// greedy over the full database exactly — the strongest possible insert
// correctness property, since index quality cannot affect answer exactness.
// The pass's sketch filter is on, so every inserted graph's sketch row must
// line up with its vantage row. A session opened before the inserts keeps
// answering over the relevant set it was opened with.
func TestInsertPreservesExactAnswers(t *testing.T) {
	full, _ := clusteredDB(t, 5, 12, 400)
	prefixLen := full.Len() * 2 / 3

	// Growable database seeded with the prefix.
	graphs := make([]*graph.Graph, prefixLen)
	copy(graphs, full.Graphs()[:prefixLen])
	db, err := graph.NewDatabase(graphs)
	if err != nil {
		t.Fatal(err)
	}
	counter := metric.NewCounter(metric.Star(db))
	m := metric.NewCache(counter)
	ix, err := Build(db, m, Options{NumVPs: 5, ThetaGrid: []float64{2, 4, 8, 16, 64}},
		rand.New(rand.NewSource(401)))
	if err != nil {
		t.Fatal(err)
	}
	ix.UseSketchFilter()
	relevance := func(f []float64) bool { return f[0] > 0.3 }
	thetas := []float64{3, 6, 12}
	early := ix.NewSession(relevance)
	var before []*core.Result
	for _, theta := range thetas {
		res, err := early.TopK(theta, 6)
		if err != nil {
			t.Fatal(err)
		}
		before = append(before, res)
	}
	for i := prefixLen; i < full.Len(); i++ {
		src := full.Graph(graph.ID(i))
		g, err := src.Clone(graph.ID(i)).Build(graph.ID(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Append(g); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		before := counter.Count()
		if err := ix.Insert(graph.ID(i)); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
		if got, want := counter.Count()-before, int64(ix.VO().NumVPs()); got != want {
			t.Fatalf("Insert %d computed %d distances, want the %d vantage distances", i, got, want)
		}
	}
	checkCovers(t, ix, db.Len())
	for i, theta := range thetas {
		if got, err := early.TopK(theta, 6); err != nil || !reflect.DeepEqual(got, before[i]) {
			t.Fatalf("θ=%v: session opened before the inserts answered %+v (%v), want %+v", theta, got, err, before[i])
		}
		want, err := core.BaselineGreedy(db, m, core.Query{Relevance: relevance, Theta: theta, K: 6})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ix.NewSession(relevance).TopK(theta, 6)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Answer, want.Answer) {
			t.Fatalf("θ=%v after inserts: %v, want %v", theta, got.Answer, want.Answer)
		}
	}
}

func TestInsertIntoSingletonIndex(t *testing.T) {
	db1, _ := clusteredDB(t, 1, 1, 402)
	db, err := graph.NewDatabase([]*graph.Graph{db1.Graph(0)})
	if err != nil {
		t.Fatal(err)
	}
	m := metric.NewCache(metric.Star(db))
	ix, err := Build(db, m, Options{NumVPs: 1, ThetaGrid: []float64{4}},
		rand.New(rand.NewSource(403)))
	if err != nil {
		t.Fatal(err)
	}
	more, _ := clusteredDB(t, 2, 3, 404)
	for i := 1; i <= 4; i++ {
		g, err := more.Graph(graph.ID(i)).Clone(graph.ID(i)).Build(graph.ID(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Append(g); err != nil {
			t.Fatal(err)
		}
		if err := ix.Insert(graph.ID(i)); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	checkCovers(t, ix, db.Len())
	res, err := ix.NewSession(func([]float64) bool { return true }).TopK(1e9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Power != 1 || res.Relevant != 5 {
		t.Errorf("post-insert query: %+v", res)
	}
}

// checkCovers fails unless ix has a vantage row, an embedding record and a
// sketch row for each of the n graphs.
func checkCovers(t *testing.T, ix *Index, n int) {
	t.Helper()
	if ix.Count() != n || ix.EmbeddingTable().Len() != n || len(ix.sketch) != n*ged.SketchWidth {
		t.Fatalf("index holds %d vantage rows, %d embedding records and %d sketch cells for %d graphs",
			ix.Count(), ix.EmbeddingTable().Len(), len(ix.sketch), n)
	}
}

func TestInsertErrors(t *testing.T) {
	db, m := clusteredDB(t, 2, 4, 405)
	ix := buildIndex(t, db, m, []float64{4}, 406)
	if err := ix.Insert(graph.ID(0)); err == nil {
		t.Error("re-inserting an indexed id accepted")
	}
	if err := ix.Insert(graph.ID(db.Len())); err == nil {
		t.Error("inserting beyond the database accepted")
	}
}
