package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"graphrep"
)

func testServer(t *testing.T) (*httptest.Server, *graphrep.Database) {
	t.Helper()
	db, err := graphrep.GenerateDataset("dud", 120, 1)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := graphrep.Open(db, graphrep.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(engine).Handler())
	t.Cleanup(ts.Close)
	return ts, db
}

func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	return resp
}

func TestStatsEndpoint(t *testing.T) {
	ts, db := testServer(t)
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Graphs != db.Len() || st.FeatureDim != db.FeatureDim() || st.IndexBytes <= 0 {
		t.Errorf("stats = %+v", st)
	}
	// Index construction issues only Distance calls, so a fresh server
	// reports zero queries and zero query-path work; the fields must still
	// be present and zero.
	if st.Queries != 0 || st.ExactDistances != 0 || st.PrunedDistances != 0 {
		t.Errorf("fresh server reports query work: %+v", st)
	}

	// After one query, the work split and the cascade breakdown surface.
	if r := postJSON(t, ts.URL+"/query", QueryRequest{
		Relevance: RelevanceSpec{Kind: "quartile"}, Theta: 10, K: 5,
	}, nil); r.StatusCode != http.StatusOK {
		t.Fatalf("/query status %d", r.StatusCode)
	}
	resp2, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Queries != 1 {
		t.Errorf("queries = %d after one /query, want 1", st.Queries)
	}
	if st.ExactDistances+st.PrunedDistances == 0 {
		t.Error("query reported no candidate threshold tests")
	}
	pruned := st.Prune.Embedding + st.Prune.RowMin + st.Prune.Greedy + st.Prune.Dual
	if pruned+st.Prune.BoundedExact == 0 {
		t.Error("bound cascade recorded no bounded decisions")
	}

	// POST to a GET endpoint is rejected.
	if r := postJSON(t, ts.URL+"/stats", map[string]int{}, nil); r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /stats status %d", r.StatusCode)
	}
}

func TestQueryEndpoint(t *testing.T) {
	ts, _ := testServer(t)
	var qr QueryResponse
	resp := postJSON(t, ts.URL+"/query", QueryRequest{
		Relevance: RelevanceSpec{Kind: "quartile"},
		Theta:     10,
		K:         5,
	}, &qr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(qr.Answer) == 0 || qr.Power <= 0 || qr.Relevant <= 0 {
		t.Errorf("response %+v", qr)
	}
	if len(qr.Gains) != len(qr.Answer) {
		t.Errorf("gains/answer mismatch")
	}
	// Repeated query hits the cached session and agrees.
	var qr2 QueryResponse
	postJSON(t, ts.URL+"/query", QueryRequest{
		Relevance: RelevanceSpec{Kind: "quartile"},
		Theta:     10,
		K:         5,
	}, &qr2)
	if qr2.Power != qr.Power {
		t.Errorf("cached session answered differently: %v vs %v", qr2.Power, qr.Power)
	}
}

func TestQueryRelevanceKinds(t *testing.T) {
	ts, _ := testServer(t)
	specs := []RelevanceSpec{
		{Kind: "quartile", Dims: []int{0}},
		{Kind: "threshold", Dims: []int{0}, Tau: 0.5},
		{Kind: "topics", Topics: []int{0, 1}, Tau: 0.05},
		{Kind: "weighted", Weights: []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, Tau: 3},
	}
	for _, spec := range specs {
		var qr QueryResponse
		resp := postJSON(t, ts.URL+"/query", QueryRequest{Relevance: spec, Theta: 10, K: 3}, &qr)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("kind %s: status %d", spec.Kind, resp.StatusCode)
		}
	}
}

func TestQueryErrors(t *testing.T) {
	ts, _ := testServer(t)
	cases := []QueryRequest{
		{Relevance: RelevanceSpec{Kind: "nope"}, Theta: 5, K: 3},
		{Relevance: RelevanceSpec{Kind: "quartile"}, Theta: -1, K: 3},
		{Relevance: RelevanceSpec{Kind: "quartile"}, Theta: 5, K: 0},
	}
	for i, req := range cases {
		if r := postJSON(t, ts.URL+"/query", req, nil); r.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, r.StatusCode)
		}
	}
	// Unknown fields are rejected.
	resp, err := http.Post(ts.URL+"/query", "application/json",
		bytes.NewReader([]byte(`{"bogus": true}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d", resp.StatusCode)
	}
	// GET on /query is rejected.
	getResp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query: status %d", getResp.StatusCode)
	}
}

// A relevance spec naming a feature dim outside [0, FeatureDim) is a client
// error on /query and /sweep: it is answered 400 on every attempt, not just
// the first, and no shard lock stays held, so a later /insert completes and
// a valid query still answers.
func TestBadRelevanceDims(t *testing.T) {
	db, err := graphrep.GenerateDataset("dud", 120, 1)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := graphrep.Open(db, graphrep.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(engine).Handler())
	// A leaked lock leaves a handler blocked, and Close would wait for it;
	// skip the close on failure so the test reports instead of hanging.
	t.Cleanup(func() {
		if !t.Failed() {
			ts.Close()
		}
	})
	for _, path := range []string{"/query", "/sweep"} {
		for _, spec := range []RelevanceSpec{
			{Kind: "quartile", Dims: []int{99}},
			{Kind: "quartile", Dims: []int{-1}},
			{Kind: "threshold", Dims: []int{0, db.FeatureDim()}, Tau: 0.5},
		} {
			for try := 1; try <= 2; try++ {
				r := postJSON(t, ts.URL+path, QueryRequest{Relevance: spec, Theta: 5, K: 3}, nil)
				if r.StatusCode != http.StatusBadRequest {
					t.Fatalf("%s %+v, try %d: status %d, want 400", path, spec, try, r.StatusCode)
				}
			}
		}
	}
	body, err := json.Marshal(InsertRequest{
		Labels:   []uint32{1, 2},
		Edges:    [][3]int{{0, 1, 0}},
		Features: make([]float64, db.FeatureDim()),
	})
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Post(ts.URL+"/insert", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("/insert after bad specs: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/insert after bad specs: status %d", resp.StatusCode)
	}
	var qr QueryResponse
	if r := postJSON(t, ts.URL+"/query", QueryRequest{
		Relevance: RelevanceSpec{Kind: "quartile", Dims: []int{0}}, Theta: 5, K: 3,
	}, &qr); r.StatusCode != http.StatusOK || len(qr.Answer) == 0 {
		t.Fatalf("valid query after bad specs: status %d, answer %v", r.StatusCode, qr.Answer)
	}
}

func TestSweepEndpoint(t *testing.T) {
	ts, _ := testServer(t)
	var sr SweepResponse
	resp := postJSON(t, ts.URL+"/sweep", QueryRequest{
		Relevance: RelevanceSpec{Kind: "quartile"},
		K:         5,
	}, &sr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(sr.Points) == 0 {
		t.Fatal("no sweep points")
	}
	if sr.Suggested.Theta < sr.Points[0].Theta || sr.Suggested.Theta > sr.Points[len(sr.Points)-1].Theta {
		t.Errorf("suggested θ %v outside sweep range", sr.Suggested.Theta)
	}
}

func TestGraphEndpoint(t *testing.T) {
	ts, db := testServer(t)
	resp, err := http.Get(fmt.Sprintf("%s/graph?id=%d", ts.URL, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var gr GraphResponse
	if err := json.NewDecoder(resp.Body).Decode(&gr); err != nil {
		t.Fatal(err)
	}
	g := db.Graph(3)
	if gr.ID != 3 || len(gr.Labels) != g.Order() || len(gr.Edges) != g.Size() {
		t.Errorf("graph response %+v", gr)
	}
	for _, bad := range []string{"/graph?id=-1", "/graph?id=99999", "/graph?id=x"} {
		r, err := http.Get(ts.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", bad, r.StatusCode)
		}
	}
}

func TestInsertEndpoint(t *testing.T) {
	ts, db := testServer(t)
	before := db.Len()
	req := InsertRequest{
		Labels:   []uint32{1, 2, 3},
		Edges:    [][3]int{{0, 1, 0}, {1, 2, 0}},
		Features: make([]float64, db.FeatureDim()),
	}
	var ir InsertResponse
	resp := postJSON(t, ts.URL+"/insert", req, &ir)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if int(ir.ID) != before || db.Len() != before+1 {
		t.Fatalf("assigned id %d, db len %d (was %d)", ir.ID, db.Len(), before)
	}
	// The inserted graph is retrievable.
	gResp, err := http.Get(fmt.Sprintf("%s/graph?id=%d", ts.URL, ir.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer gResp.Body.Close()
	var gr GraphResponse
	if err := json.NewDecoder(gResp.Body).Decode(&gr); err != nil {
		t.Fatal(err)
	}
	if len(gr.Labels) != 3 || len(gr.Edges) != 2 {
		t.Errorf("inserted graph round trip: %+v", gr)
	}
	// Queries after the insert see the grown database.
	var qr QueryResponse
	postJSON(t, ts.URL+"/query", QueryRequest{
		Relevance: RelevanceSpec{Kind: "quartile"}, Theta: 10, K: 3,
	}, &qr)
	if qr.Relevant == 0 {
		t.Error("post-insert query degenerate")
	}
	// Malformed graphs are rejected.
	bad := InsertRequest{Labels: []uint32{1}, Edges: [][3]int{{0, 5, 0}}}
	if r := postJSON(t, ts.URL+"/insert", bad, nil); r.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed insert: status %d", r.StatusCode)
	}
}

// TestRequestBodyCap holds every POST body to maxBodyBytes: an oversized
// /query or /insert body is answered 413 without touching the engine, while
// a body just under the cap is decoded as usual.
func TestRequestBodyCap(t *testing.T) {
	ts, db := testServer(t)
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	query := func(pad int) string {
		return `{"relevance":{"kind":"quartile"},"theta":5,` + strings.Repeat(" ", pad) + `"k":3}`
	}
	if code := post("/query", query(maxBodyBytes/2)); code != http.StatusOK {
		t.Errorf("/query under the cap: status %d, want 200", code)
	}
	if code := post("/query", query(maxBodyBytes)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("/query over the cap: status %d, want 413", code)
	}
	before := db.Len()
	labels := strings.Repeat("1,", maxBodyBytes/2) + "1"
	insert := fmt.Sprintf(`{"labels":[%s],"edges":[],"features":[%s]}`,
		labels, strings.TrimSuffix(strings.Repeat("0,", db.FeatureDim()), ","))
	if code := post("/insert", insert); code != http.StatusRequestEntityTooLarge {
		t.Errorf("/insert over the cap: status %d, want 413", code)
	}
	if db.Len() != before {
		t.Errorf("oversized insert grew the database: %d graphs, want %d", db.Len(), before)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts, _ := testServer(t)
	// Generate some traffic first so the per-endpoint counters exist.
	var qr QueryResponse
	postJSON(t, ts.URL+"/query", QueryRequest{
		Relevance: RelevanceSpec{Kind: "quartile"}, Theta: 10, K: 5,
	}, &qr)
	postJSON(t, ts.URL+"/query", QueryRequest{
		Relevance: RelevanceSpec{Kind: "nope"}, Theta: 10, K: 5,
	}, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	// The acceptance surface: distance computations, cache hits/misses,
	// per-endpoint request counts and latency histograms, NB-Index pruning
	// counters, and the HTTP gauges.
	for _, want := range []string{
		"graphrep_distance_computations_total",
		"graphrep_distance_cache_hits_total",
		"graphrep_distance_cache_misses_total",
		`graphrep_http_requests_total{endpoint="/query"} 2`,
		`graphrep_http_errors_total{endpoint="/query"} 1`,
		`graphrep_http_request_duration_seconds_count{endpoint="/query"} 2`,
		`graphrep_http_request_duration_seconds_bucket{endpoint="/query",le="+Inf"} 2`,
		"graphrep_http_in_flight_requests 1", // the /metrics request itself
		"graphrep_nbindex_queries_total 1",
		"graphrep_nbindex_pq_pops_bucket",
		"graphrep_nbindex_verified_leaves_count 1",
		"graphrep_nbindex_candidate_scans_count 1",
		"graphrep_nbindex_exact_distances_count 1",
		"graphrep_graphs 120",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Valid text format: every non-comment line is "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
	// POST is rejected.
	if r := postJSON(t, ts.URL+"/metrics", map[string]int{}, nil); r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics status %d", r.StatusCode)
	}
}

func TestPprofOption(t *testing.T) {
	db, err := graphrep.GenerateDataset("dud", 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := graphrep.Open(db, graphrep.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	with := httptest.NewServer(New(engine, Options{Pprof: true}).Handler())
	defer with.Close()
	resp, err := http.Get(with.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof enabled: status %d", resp.StatusCode)
	}

	engine2, err := graphrep.Open(db, graphrep.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	without := httptest.NewServer(New(engine2).Handler())
	defer without.Close()
	resp, err = http.Get(without.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof disabled: status %d, want 404", resp.StatusCode)
	}
}

// The server must be safe under concurrent clients.
func TestConcurrentQueries(t *testing.T) {
	ts, _ := testServer(t)
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			for i := 0; i < 5; i++ {
				var qr QueryResponse
				buf, _ := json.Marshal(QueryRequest{
					Relevance: RelevanceSpec{Kind: "quartile"},
					Theta:     8 + float64(w),
					K:         3,
				})
				resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(buf))
				if err != nil {
					done <- err
					return
				}
				err = json.NewDecoder(resp.Body).Decode(&qr)
				resp.Body.Close()
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestQueryTimeout(t *testing.T) {
	db, err := graphrep.GenerateDataset("dud", 120, 1)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := graphrep.Open(db, graphrep.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(engine, Options{QueryTimeout: time.Nanosecond}).Handler())
	defer ts.Close()

	req := QueryRequest{Relevance: RelevanceSpec{Kind: "quartile"}, Theta: 10, K: 5}
	if resp := postJSON(t, ts.URL+"/query", req, nil); resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("/query with 1ns deadline: status %d, want 504", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/sweep", QueryRequest{Relevance: RelevanceSpec{Kind: "quartile"}, K: 5}, nil); resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("/sweep with 1ns deadline: status %d, want 504", resp.StatusCode)
	}
}
