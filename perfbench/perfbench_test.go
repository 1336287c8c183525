package main

import (
	"bytes"
	"strings"
	"testing"

	"graphrep"
	"graphrep/internal/server"
)

func TestPercentileTailRule(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // descending: percentile must not depend on order
		}
		return s
	}
	if v, beyond := percentile(samples(100), 90); v != 90 || beyond != 10 {
		t.Errorf("p90 of 1..100 = %v with %d beyond, want 90 with 10", v, beyond)
	}
	if v, _, err := tailPercentile(samples(100), 90); err != nil || v != 90 {
		t.Errorf("tailPercentile(100 samples, 90) = %v, %v; want 90, nil", v, err)
	}
	if _, _, err := tailPercentile(samples(99), 90); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if v := median(samples(5)); v != 3 {
		t.Errorf("median of 1..5 = %v, want 3", v)
	}
}

// TestSpeedProbe checks that the probe allocates nothing, so it cannot shift
// the program's garbage collection, and that slowdown is probe time per run
// over the reference.
func TestSpeedProbe(t *testing.T) {
	p := newSpeedProbe()
	if n := testing.AllocsPerRun(5, p.work); n != 0 {
		t.Errorf("probe work allocates %v times per run, want 0", n)
	}
	var pt probeTime
	p.run(3, &pt)
	if pt.runs != 3 || pt.wall <= 0 {
		t.Fatalf("after 3 runs: %+v", pt)
	}
	pt = probeTime{runs: 4, wall: 5 * probeReference}
	if got := pt.slowdown(); got != 1.25 {
		t.Errorf("slowdown of 4 runs in 5 reference times = %v, want 1.25", got)
	}
}

// testCorpus is a small dud corpus with graphs held back for inserts.
func testCorpus(t *testing.T, seed int64) corpus {
	t.Helper()
	c, err := generate(120, 40, seed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func bodies(pl plan) [][]byte {
	var out [][]byte
	for _, o := range append(append([]op(nil), pl.warmup...), pl.ops...) {
		out = append(out, o.body)
	}
	return out
}

func equalBodies(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestPlanDeterminism(t *testing.T) {
	c := testCorpus(t, 1)
	for _, w := range []string{"refine", "explore", "ingest"} {
		a, err := makePlan(w, c.db, c.held, 40, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := makePlan(w, c.db, c.held, 40, 7)
		if !equalBodies(bodies(a), bodies(b)) {
			t.Errorf("%s: the same seed gave different ops", w)
		}
		d, _ := makePlan(w, c.db, c.held, 40, 8)
		if equalBodies(bodies(a), bodies(d)) {
			t.Errorf("%s: seeds 7 and 8 gave the same ops", w)
		}
		if len(a.ops) != 40 {
			t.Errorf("%s: %d measured ops, want 40", w, len(a.ops))
		}
	}
}

func TestExploreNeverRepeatsASpec(t *testing.T) {
	c := testCorpus(t, 1)
	pl, err := makePlan("explore", c.db, nil, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := predictedInits(pl); got != 60 {
		t.Errorf("explore opens %d sessions over 60 ops, want one per op", got)
	}
}

func TestPredictedInits(t *testing.T) {
	c := testCorpus(t, 1)
	pl, err := makePlan("ingest", c.db, c.held, 2*ingestGroup, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Every query follows an insert that dropped the cached sessions, and
	// the two groups query distinct specs.
	if got := predictedInits(pl); got != 2*(ingestGroup-1) {
		t.Errorf("predictedInits = %d, want %d", got, 2*(ingestGroup-1))
	}
	pl, _ = makePlan("refine", c.db, nil, 50, 3)
	if got := predictedInits(pl); got != 0 {
		t.Errorf("refine: warm-up opens every session, yet %d measured inits predicted", got)
	}
}

func TestCheckQuery(t *testing.T) {
	req := server.QueryRequest{K: 3}
	good := func() server.QueryResponse {
		return server.QueryResponse{Answer: []int32{4, 9}, Gains: []int{5, 2}, Covered: 7, Relevant: 10, Power: 0.7}
	}
	if err := checkQuery(req, 200, good(), 20); err != nil {
		t.Fatalf("valid answer rejected: %v", err)
	}
	bad := map[string]func(*server.QueryResponse) int{
		"status": func(*server.QueryResponse) int { return 400 },
		"answer above k": func(r *server.QueryResponse) int {
			r.Answer, r.Gains = []int32{1, 2, 3, 4}, []int{2, 2, 2, 1}
			return 200
		},
		"rising gains": func(r *server.QueryResponse) int { r.Gains = []int{2, 5}; return 200 },
		"sum≠covered":  func(r *server.QueryResponse) int { r.Covered = 8; r.Power = 0.8; return 200 },
		"covered>rel":  func(r *server.QueryResponse) int { r.Relevant = 6; r.Power = 7.0 / 6; return 200 },
		"power":        func(r *server.QueryResponse) int { r.Power = 0.75; return 200 },
		"duplicate id": func(r *server.QueryResponse) int { r.Answer = []int32{4, 4}; return 200 },
		"id beyond db": func(r *server.QueryResponse) int { r.Answer = []int32{4, 20}; return 200 },
		"gains length": func(r *server.QueryResponse) int { r.Gains = []int{7}; return 200 },
		"zero gain":    func(r *server.QueryResponse) int { r.Gains = []int{7, 0}; return 200 },
	}
	for name, corrupt := range bad {
		r := good()
		status := corrupt(&r)
		if err := checkQuery(req, status, r, 20); err == nil {
			t.Errorf("%s: crafted bad answer accepted", name)
		}
	}
	if err := checkInsert(200, 5, 6); err == nil {
		t.Error("insert answered with the wrong id accepted")
	}
	if err := checkInsert(500, 6, 6); err == nil {
		t.Error("failed insert accepted")
	}
}

func TestCheckPassCountsEveryFailure(t *testing.T) {
	pl := plan{ops: []op{
		{query: &server.QueryRequest{K: 2}},
		{insert: &server.InsertRequest{}},
		{query: &server.QueryRequest{K: 2}},
	}}
	ok := server.QueryResponse{Answer: []int32{10}, Gains: []int{1}, Covered: 1, Relevant: 2, Power: 0.5}
	outs := []outcome{
		{status: 200, query: ok},
		{status: 200, insertID: 11}, // the corpus has 10 graphs: the insert must get id 10
		{status: 200, query: server.QueryResponse{Answer: []int32{10}, Gains: []int{1}, Covered: 1, Relevant: 2, Power: 0.4}},
	}
	errs := checkPass(pl, outs, 10)
	if len(errs) != 3 {
		t.Fatalf("got %d failures, want 3 (id 10 beyond a 10-graph corpus, wrong insert id, wrong power): %v", len(errs), errs)
	}
	if !strings.Contains(errs[0].Error(), "op 0") {
		t.Errorf("failure does not name its op: %v", errs[0])
	}
}

func TestDigestCoversAnswers(t *testing.T) {
	outs := []outcome{{status: 200, query: server.QueryResponse{Answer: []int32{1, 2}, Gains: []int{3, 1}, Covered: 4, Relevant: 9}}}
	base := digest(outs)
	changed := []outcome{{status: 200, query: server.QueryResponse{Answer: []int32{2, 1}, Gains: []int{3, 1}, Covered: 4, Relevant: 9}}}
	if digest(changed) == base {
		t.Error("digest ignores answer order")
	}
	changed[0].query = server.QueryResponse{Answer: []int32{1, 2}, Gains: []int{2, 2}, Covered: 4, Relevant: 9}
	if digest(changed) == base {
		t.Error("digest ignores gains")
	}
}

func TestCountsFirstDiff(t *testing.T) {
	var a, b counts
	a[cFullSolves], b[cFullSolves] = 3, 3
	if d := a.firstDiff(b); d != "" {
		t.Errorf("equal counts reported as differing at %q", d)
	}
	b[cCacheHits], b[cInserts] = 1, 2
	if d := a.firstDiff(b); !strings.HasPrefix(d, "cache_hits") {
		t.Errorf("firstDiff = %q, want the first differing count, cache_hits", d)
	}
}

// TestDirectMatchesServer replays a small ingest plan over HTTP and
// directly against a second engine, and checks that both passes answer and
// count identically — the equality the traced run enforces.
func TestDirectMatchesServer(t *testing.T) {
	c := testCorpus(t, 2)
	pl, err := makePlan("ingest", c.db, c.held, 3*ingestGroup, 5)
	if err != nil {
		t.Fatal(err)
	}
	bi, err := buildAndSave(c.db, 2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := reopen(bi)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.serve(nil); err != nil {
		t.Fatal(err)
	}
	if err := s.warmupHTTP(pl); err != nil {
		t.Fatal(err)
	}
	h := s.httpPass(pl, nil)
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	if errs := checkPass(pl, h.outcomes, c.db.Len()); len(errs) > 0 {
		t.Fatalf("HTTP pass failed the oracle: %v", errs)
	}

	sb, err := reopen(bi)
	if err != nil {
		t.Fatal(err)
	}
	defer sb.close()
	d := newDirect(sb.eng, nil)
	for _, o := range pl.warmup {
		if _, err := d.do(o, -1); err != nil {
			t.Fatal(err)
		}
	}
	b, err := d.pass(pl)
	if err != nil {
		t.Fatal(err)
	}
	if digest(h.outcomes) != digest(b.outcomes) {
		t.Error("direct pass answers differ from the server's")
	}
	if diff := h.counts.firstDiff(b.counts); diff != "" {
		t.Errorf("direct pass counts differ from the server's at %s", diff)
	}
	checked, errs := exactCheck(sb.eng, pl, b.outcomes)
	if checked == 0 || len(errs) > 0 {
		t.Errorf("baseline greedy check: %d checked, errors %v", checked, errs)
	}
}

func TestBuildGraphMatchesInsertPayload(t *testing.T) {
	c := testCorpus(t, 1)
	g := c.held[0]
	got, err := buildGraph(*insertOp(g).insert, g.ID())
	if err != nil {
		t.Fatal(err)
	}
	if graphrep.WLHash(got, 3) != graphrep.WLHash(g, 3) || graphrep.Distance(got, g) != 0 {
		t.Error("graph rebuilt from its insert payload differs from the original")
	}
}
