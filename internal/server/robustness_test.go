package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"graphrep"
)

// TestCorruptCorpusAnswers500 serves a GRDB001 corpus whose vertex-offset
// table decreases at graph 1. The O(1) open and the index load accept it;
// every endpoint that reads graph content must answer 500 naming the
// failure instead of slicing out of range.
func TestCorruptCorpusAnswers500(t *testing.T) {
	db, err := graphrep.GenerateDataset("dud", 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := graphrep.Open(db, graphrep.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var index, corpus bytes.Buffer
	if err := engine.SaveIndex(&index); err != nil {
		t.Fatal(err)
	}
	if err := graphrep.SaveDatabase(&corpus, db); err != nil {
		t.Fatal(err)
	}
	// The vertex-offset table starts 0, |V(g0)|, |V(g0)|+|V(g1)|, ...;
	// raise its entry 1 above entry 2.
	var prefix []byte
	var off uint64
	for i := 0; i < 3; i++ {
		prefix = binary.LittleEndian.AppendUint64(prefix, off)
		off += uint64(db.Graph(graphrep.ID(i)).Order())
	}
	data := corpus.Bytes()
	at := bytes.Index(data, prefix)
	if at < 0 || bytes.Index(data[at+1:], prefix) >= 0 {
		t.Fatal("vertex-offset table not found exactly once")
	}
	second := binary.LittleEndian.Uint64(prefix[16:])
	binary.LittleEndian.PutUint64(data[at+8:], second+5)
	corpusPath, indexPath := filepath.Join(dir, "corpus.grdb"), filepath.Join(dir, "index.nbidx")
	if err := os.WriteFile(corpusPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(indexPath, index.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt, err := graphrep.OpenDatabaseFile(corpusPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { corrupt.Close() })
	served, err := graphrep.OpenWithIndexFile(corrupt, indexPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { served.Close() })

	h := New(served).Handler()
	for _, req := range []struct{ method, path, body string }{
		{http.MethodGet, "/graph?id=1", ""},
		{http.MethodGet, "/stats", ""},
		{http.MethodPost, "/query", `{"relevance":{"kind":"quartile"},"theta":8,"k":3}`},
		{http.MethodPost, "/sweep", `{"relevance":{"kind":"quartile"},"k":3}`},
	} {
		rec := serve(h, req.method, req.path, req.body)
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "vertex offsets decrease") {
			t.Errorf("%s %s: status %d %q, want 500 naming the decreasing offsets",
				req.method, req.path, rec.Code, rec.Body)
		}
	}
}

// FuzzHandlers posts arbitrary bodies to the POST endpoints of one small
// engine per fuzz process. No body may crash a handler or draw a 5xx, every
// answer is JSON, and a fixed valid query still answers afterwards (no lock
// or cache state is left broken).
func FuzzHandlers(f *testing.F) {
	srv, engine := smallServer(f, 40)
	h := srv.Handler()
	dim := engine.Database().FeatureDim()
	paths := []string{"/query", "/sweep", "/insert"}
	add := func(path string, body any) {
		buf, err := json.Marshal(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(slices.Index(paths, path)), string(buf))
	}
	for _, spec := range []RelevanceSpec{
		{Kind: "quartile"},
		{Kind: "quartile", Dims: []int{0}},
		{Kind: "quartile", Dims: []int{99}},
		{Kind: "threshold", Dims: []int{0}, Tau: 0.5},
		{Kind: "topics", Topics: []int{0, 1}, Tau: 0.05},
		{Kind: "weighted", Weights: []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, Tau: 3},
		{Kind: "nope"},
	} {
		add("/query", QueryRequest{Relevance: spec, Theta: 10, K: 3})
		add("/sweep", QueryRequest{Relevance: spec, K: 3})
	}
	add("/query", QueryRequest{Relevance: RelevanceSpec{Kind: "quartile"}, Theta: -1, K: 3})
	add("/query", QueryRequest{Relevance: RelevanceSpec{Kind: "quartile"}, Theta: 5, K: 0})
	add("/insert", insertBody(dim))
	add("/insert", InsertRequest{Labels: []uint32{1}, Edges: [][3]int{{0, 5, 0}}})
	for _, body := range []string{
		`{"relevance":{"kind":"quartile","dims":[]},"theta":8,"k":3}`,
		`{"relevance":{"kind":"threshold","dims":[],"tau":0.3},"theta":8,"k":3}`,
		`{"bogus": true}`,
		`{"relevance":`,
		`[]`,
		`null`,
		``,
		`{"labels":[1,2],"edges":[[0,1,0],[1,0,0]],"features":[0,0,0,0,0,0,0,0,0,0]}`,
		`{"labels":[1,2],"edges":[[-1,1,0]],"features":[0,0,0,0,0,0,0,0,0,0]}`,
	} {
		for i := range paths {
			f.Add(uint8(i), body)
		}
	}
	const valid = `{"relevance":{"kind":"quartile"},"theta":8,"k":3}`
	f.Fuzz(func(t *testing.T, endpoint uint8, body string) {
		// A larger /insert body can build a graph whose star distances take
		// seconds; the 1 MiB cap is TestRequestBodyCap's.
		if len(body) > 1024 {
			t.Skip()
		}
		path := paths[int(endpoint)%len(paths)]
		rec := serve(h, http.MethodPost, path, body)
		if rec.Code >= 500 {
			t.Fatalf("%s %q: status %d: %s", path, body, rec.Code, rec.Body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%s %q: status %d, body not JSON: %q", path, body, rec.Code, rec.Body)
		}
		if rec := serve(h, http.MethodPost, "/query", valid); rec.Code != http.StatusOK {
			t.Fatalf("after %s %q: valid /query status %d: %s", path, body, rec.Code, rec.Body)
		}
	})
}
