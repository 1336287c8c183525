package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"graphrep"
)

// The concurrency stress suite. Run under -race these tests exercise every
// pairing the locking scheme must survive: parallel queries against shared
// and distinct sessions, sweeps, reads of /stats and /graph, /metrics
// scrapes, and — the historical race — /insert mutating the database and
// index while all of the above are in flight.

// client is a minimal test client that reports transport failures through t
// and returns the status code (handlers answering 4xx/5xx are a test
// assertion, not a transport failure).
type client struct {
	t    *testing.T
	base string
}

func (c *client) post(path string, body any) int {
	buf, err := json.Marshal(body)
	if err != nil {
		c.t.Error(err)
		return 0
	}
	resp, err := http.Post(c.base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		c.t.Error(err)
		return 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

func (c *client) get(path string) int {
	resp, err := http.Get(c.base + path)
	if err != nil {
		c.t.Error(err)
		return 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

func insertBody(dim int) InsertRequest {
	return InsertRequest{
		Labels:   []uint32{1, 2, 3, 4},
		Edges:    [][3]int{{0, 1, 0}, {1, 2, 1}, {2, 3, 0}},
		Features: make([]float64, dim),
	}
}

// TestConcurrentMixedLoad hammers every endpoint at once. Each worker runs a
// different traffic shape; the race detector owns the memory-safety
// assertions, the test body owns the semantic ones (no non-2xx answers on
// well-formed requests, database length grows by exactly the insert count).
func TestConcurrentMixedLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	ts, db := testServer(t)
	before := db.Len()
	dim := db.FeatureDim()

	const (
		workers = 4 // per shape
		iters   = 6
	)
	var inserts atomic.Int64
	shapes := []struct {
		name string
		op   func(c *client, w, i int) int
	}{
		{"query-shared", func(c *client, w, i int) int {
			// All workers share one session: same relevance spec.
			return c.post("/query", QueryRequest{
				Relevance: RelevanceSpec{Kind: "quartile"}, Theta: 8, K: 4,
			})
		}},
		{"query-distinct", func(c *client, w, i int) int {
			// Distinct specs force concurrent session initializations.
			return c.post("/query", QueryRequest{
				Relevance: RelevanceSpec{Kind: "threshold", Dims: []int{w % dim}, Tau: 0.2},
				Theta:     6 + float64(i), K: 3,
			})
		}},
		{"sweep", func(c *client, w, i int) int {
			return c.post("/sweep", QueryRequest{
				Relevance: RelevanceSpec{Kind: "quartile"}, K: 3,
			})
		}},
		{"insert", func(c *client, w, i int) int {
			code := c.post("/insert", insertBody(dim))
			if code == http.StatusOK {
				inserts.Add(1)
			}
			return code
		}},
		{"stats", func(c *client, w, i int) int { return c.get("/stats") }},
		{"graph", func(c *client, w, i int) int {
			// Only IDs that predate the storm are guaranteed to exist.
			return c.get(fmt.Sprintf("/graph?id=%d", (w*iters+i)%before))
		}},
		{"metrics", func(c *client, w, i int) int { return c.get("/metrics") }},
	}

	var wg sync.WaitGroup
	for _, shape := range shapes {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(name string, op func(*client, int, int) int, w int) {
				defer wg.Done()
				c := &client{t: t, base: ts.URL}
				for i := 0; i < iters; i++ {
					if code := op(c, w, i); code != http.StatusOK {
						t.Errorf("%s worker %d iter %d: status %d", name, w, i, code)
						return
					}
				}
			}(shape.name, shape.op, w)
		}
	}
	wg.Wait()

	want := before + int(inserts.Load())
	if db.Len() != want {
		t.Errorf("db len %d after storm, want %d (%d inserts)", db.Len(), want, inserts.Load())
	}
	if inserts.Load() != workers*iters {
		t.Errorf("only %d/%d inserts succeeded", inserts.Load(), workers*iters)
	}

	// Queries after the storm see every inserted graph.
	c := &client{t: t, base: ts.URL}
	if code := c.get(fmt.Sprintf("/graph?id=%d", want-1)); code != http.StatusOK {
		t.Errorf("last inserted graph not retrievable: status %d", code)
	}
	if code := c.post("/query", QueryRequest{
		Relevance: RelevanceSpec{Kind: "quartile"}, Theta: 8, K: 4,
	}); code != http.StatusOK {
		t.Errorf("post-storm query: status %d", code)
	}
}

// TestConcurrentSessionInit fires many first-requests for the SAME spec at
// once: several may initialize a session, one of them is cached, and every
// request must succeed with the same answer.
func TestConcurrentSessionInit(t *testing.T) {
	ts, _ := testServer(t)
	const n = 16
	results := make([]QueryResponse, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf, _ := json.Marshal(QueryRequest{
				Relevance: RelevanceSpec{Kind: "quartile"}, Theta: 10, K: 5,
			})
			resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(buf))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d", resp.StatusCode)
				return
			}
			if err := json.NewDecoder(resp.Body).Decode(&results[i]); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if results[i].Power != results[0].Power || results[i].Covered != results[0].Covered {
			t.Errorf("request %d answered differently: %+v vs %+v", i, results[i], results[0])
		}
	}
}

// TestConcurrentEngineTopK drives Session.TopK directly (no HTTP) from many
// goroutines against both a shared session and per-goroutine sessions, and
// checks the answers against a sequential ground truth. This is the engine
// half of the concurrency contract the server relies on.
func TestConcurrentEngineTopK(t *testing.T) {
	db, err := graphrep.GenerateDataset("dud", 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := graphrep.Open(db, graphrep.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	rel := graphrep.FirstQuartileRelevance(db, nil)
	shared, err := engine.NewSession(rel)
	if err != nil {
		t.Fatal(err)
	}
	thetas := []float64{4, 6, 8, 10}
	want := make(map[float64]float64) // theta → power, sequential ground truth
	for _, theta := range thetas {
		res, err := shared.TopK(theta, 5)
		if err != nil {
			t.Fatal(err)
		}
		want[theta] = res.Power
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := shared
			if w%2 == 1 {
				var err error
				if sess, err = engine.NewSession(rel); err != nil {
					t.Error(err)
					return
				}
			}
			for i := 0; i < 6; i++ {
				theta := thetas[(w+i)%len(thetas)]
				res, err := sess.TopK(theta, 5)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Power != want[theta] {
					t.Errorf("worker %d θ=%v: power %v, want %v", w, theta, res.Power, want[theta])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestMetricsConsistentAfterStorm checks the exposition totals add up after
// concurrent traffic: requests_total per endpoint equals what was sent, and
// the in-flight gauge settles back to just the scrape itself.
func TestMetricsConsistentAfterStorm(t *testing.T) {
	db, err := graphrep.GenerateDataset("dud", 80, 7)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := graphrep.Open(db, graphrep.Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(engine).Handler())
	defer ts.Close()

	const (
		workers = 6
		iters   = 5
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := &client{t: t, base: ts.URL}
			for i := 0; i < iters; i++ {
				c.post("/query", QueryRequest{
					Relevance: RelevanceSpec{Kind: "quartile"}, Theta: 6, K: 3,
				})
				c.get("/stats")
			}
		}(w)
	}
	wg.Wait()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	total := workers * iters
	for _, want := range []string{
		fmt.Sprintf(`graphrep_http_requests_total{endpoint="/query"} %d`, total),
		fmt.Sprintf(`graphrep_http_requests_total{endpoint="/stats"} %d`, total),
		fmt.Sprintf(`graphrep_http_request_duration_seconds_count{endpoint="/query"} %d`, total),
		fmt.Sprintf("graphrep_nbindex_queries_total %d", total),
		"graphrep_http_in_flight_requests 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Every endpoint's error counter (created eagerly by the middleware)
	// must still read zero: the storm sent only well-formed requests.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "graphrep_http_errors_total{") && !strings.HasSuffix(line, " 0") {
			t.Errorf("well-formed traffic produced errors: %s", line)
		}
	}
}
