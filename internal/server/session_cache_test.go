package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"graphrep"
)

// smallServer builds a server over an n-graph dud engine.
func smallServer(tb testing.TB, n int) (*Server, *graphrep.Engine) {
	tb.Helper()
	db, err := graphrep.GenerateDataset("dud", n, 1)
	if err != nil {
		tb.Fatal(err)
	}
	engine, err := graphrep.Open(db, graphrep.Options{Seed: 2})
	if err != nil {
		tb.Fatal(err)
	}
	return New(engine), engine
}

// serve sends one request straight to the handler, so a handler panic fails
// the test instead of being recovered by net/http.
func serve(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// mustQuery posts a raw /query body and decodes the 200 answer.
func mustQuery(t *testing.T, h http.Handler, body string) QueryResponse {
	t.Helper()
	rec := serve(h, http.MethodPost, "/query", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("/query %s: status %d: %s", body, rec.Code, rec.Body)
	}
	var qr QueryResponse
	if err := json.NewDecoder(rec.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	return qr
}

func cachedSessions(srv *Server) (entries, ids int) {
	srv.sessMu.Lock()
	defer srv.sessMu.Unlock()
	return len(srv.sessions), srv.cachedIDs
}

// TestSessionCacheStoresOnlyInitializedSessions: an initialization that
// fails stores nothing, so the same spec with a live context initializes
// afresh and answers.
func TestSessionCacheStoresOnlyInitializedSessions(t *testing.T) {
	srv, _ := smallServer(t, 40)
	spec := RelevanceSpec{Kind: "quartile"}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := srv.withSession(ctx, spec, func(*graphrep.Session) error {
		t.Error("fn ran on a session whose initialization was cancelled")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled init returned %v, want context.Canceled", err)
	}
	if n, _ := cachedSessions(srv); n != 0 {
		t.Fatalf("cancelled init left %d cached sessions", n)
	}
	err = srv.withSession(context.Background(), spec, func(sess *graphrep.Session) error {
		_, err := sess.TopK(8, 3)
		return err
	})
	if err != nil {
		t.Fatalf("live init after a cancelled one: %v", err)
	}
	if n, _ := cachedSessions(srv); n != 1 {
		t.Fatalf("%d cached sessions after one live init, want 1", n)
	}
}

// TestSessionCacheBound queries distinct threshold specs until the cache has
// been cleared, holding it to maxCachedIDsPerGraph relevant IDs per graph
// and every answer to the exact greedy's.
func TestSessionCacheBound(t *testing.T) {
	srv, engine := smallServer(t, 40)
	db := engine.Database()
	h := srv.Handler()
	score := graphrep.DimensionScore(nil)
	scores := make([]float64, db.Len())
	for i := range scores {
		scores[i] = score(db.Features(graphrep.ID(i)))
	}
	sort.Float64s(scores)
	bound := maxCachedIDsPerGraph * db.Len()
	clears := 0
	for i := 0; clears < 2; i++ {
		if i == 1000 {
			t.Fatalf("cache cleared %d times in %d distinct specs", clears, i)
		}
		// Step tau through the scores, so each spec selects a different
		// share of the corpus, and off them, so every spec is distinct.
		tau := scores[i*7%len(scores)] - float64(i)*1e-9
		spec, err := json.Marshal(RelevanceSpec{Kind: "threshold", Tau: tau})
		if err != nil {
			t.Fatal(err)
		}
		qr := mustQuery(t, h, `{"relevance":`+string(spec)+`,"theta":8,"k":3}`)
		entries, ids := cachedSessions(srv)
		if ids > bound {
			t.Fatalf("spec %d: cache holds %d relevant IDs, bound %d", i, ids, bound)
		}
		if i > 0 && entries == 1 {
			clears++
		}
		want, err := engine.TopKRepresentativeExact(graphrep.Query{
			Relevance: func(f []float64) bool { return score(f) >= tau }, Theta: 8, K: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]graphrep.ID, len(qr.Answer))
		for j, id := range qr.Answer {
			got[j] = graphrep.ID(id)
		}
		if len(got) == 0 && len(want.Answer) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want.Answer) || qr.Power != want.Power {
			t.Fatalf("spec %d (τ=%v): answer %v power %v, exact %v power %v",
				i, tau, got, qr.Power, want.Answer, want.Power)
		}
	}
}

// TestEmptyDimsMeansAllDims: "dims": [] and an absent dims list encode to one
// cache key, so they must select the same graphs, whichever arrives first.
func TestEmptyDimsMeansAllDims(t *testing.T) {
	fresh, _ := smallServer(t, 40)
	want := mustQuery(t, fresh.Handler(), `{"relevance":{"kind":"quartile"},"theta":8,"k":3}`)
	wantThreshold := mustQuery(t, fresh.Handler(), `{"relevance":{"kind":"threshold","tau":0.3},"theta":8,"k":3}`)
	if want.Relevant == 0 || wantThreshold.Relevant == 0 {
		t.Fatalf("plain specs select nothing: %+v, %+v", want, wantThreshold)
	}

	srv, _ := smallServer(t, 40)
	h := srv.Handler()
	for _, body := range []string{
		`{"relevance":{"kind":"quartile","dims":[]},"theta":8,"k":3}`,
		`{"relevance":{"kind":"quartile"},"theta":8,"k":3}`,
	} {
		if got := mustQuery(t, h, body); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %+v, want %+v", body, got, want)
		}
	}
	body := `{"relevance":{"kind":"threshold","dims":[],"tau":0.3},"theta":8,"k":3}`
	if got := mustQuery(t, h, body); !reflect.DeepEqual(got, wantThreshold) {
		t.Errorf("%s: %+v, want %+v", body, got, wantThreshold)
	}
}
