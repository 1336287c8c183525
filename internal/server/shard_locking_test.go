package server

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphrep"
)

// shardedServer builds a server over a multi-shard engine for the locking
// tests.
func shardedServer(t *testing.T, shards int) (*Server, *httptest.Server, *graphrep.Database) {
	t.Helper()
	db, err := graphrep.GenerateDataset("dud", 120, 1)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := graphrep.Open(db, graphrep.Options{Seed: 2, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	if engine.Shards() != shards {
		t.Fatalf("engine has %d shards, want %d", engine.Shards(), shards)
	}
	srv := New(engine)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, db
}

// TestShardedInsertBlocksQueriesNotGraphReads pins what the index lock
// excludes: with its write lock held (an insert in flight), /graph reads of
// the first and the newest graph complete, because they read only the
// copy-on-write database, while a /query waits for the unlock. The write
// lock is taken directly so the in-flight insert is held open
// deterministically instead of raced.
func TestShardedInsertBlocksQueriesNotGraphReads(t *testing.T) {
	srv, ts, db := shardedServer(t, 3)
	c := &client{t: t, base: ts.URL}

	srv.mu.Lock()
	for _, id := range []int{0, db.Len() - 1} {
		done := make(chan int, 1)
		go func() { done <- c.get(fmt.Sprintf("/graph?id=%d", id)) }()
		select {
		case code := <-done:
			if code != 200 {
				t.Errorf("/graph?id=%d under the write lock: status %d", id, code)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("/graph?id=%d blocked behind the index write lock", id)
		}
	}

	blocked := make(chan int, 1)
	go func() {
		blocked <- c.post("/query", QueryRequest{Relevance: RelevanceSpec{Kind: "quartile"}, Theta: 8, K: 4})
	}()
	select {
	case code := <-blocked:
		t.Errorf("/query returned %d while the index was write-locked", code)
	case <-time.After(100 * time.Millisecond):
		// Still waiting, as it should be.
	}

	srv.mu.Unlock()
	select {
	case code := <-blocked:
		if code != 200 {
			t.Errorf("/query after unlock: status %d", code)
		}
	case <-time.After(5 * time.Second):
		t.Error("/query never completed after unlock")
	}
}

// TestShardedInsertQueryStorm hammers a multi-shard server with concurrent
// inserts, queries, sweeps, graph reads, and metrics scrapes.
// The race detector owns the memory-safety assertions; the test body checks
// that every well-formed request succeeds and the database grows by exactly
// the insert count.
func TestShardedInsertQueryStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	_, ts, db := shardedServer(t, 4)
	before := db.Len()
	dim := db.FeatureDim()

	const (
		workers = 3
		iters   = 5
	)
	var inserts atomic.Int64
	shapes := []struct {
		name string
		op   func(c *client, w, i int) int
	}{
		{"insert", func(c *client, w, i int) int {
			code := c.post("/insert", insertBody(dim))
			if code == 200 {
				inserts.Add(1)
			}
			return code
		}},
		{"query", func(c *client, w, i int) int {
			return c.post("/query", QueryRequest{
				Relevance: RelevanceSpec{Kind: "quartile"}, Theta: 8, K: 4,
			})
		}},
		{"sweep", func(c *client, w, i int) int {
			return c.post("/sweep", QueryRequest{
				Relevance: RelevanceSpec{Kind: "quartile"}, K: 3,
			})
		}},
		{"graph", func(c *client, w, i int) int {
			// Any existing graph, and every other read the newest one:
			// graph reads run beside the inserts that append it.
			id := db.Len() - 1
			if i%2 == 1 {
				id = (w*iters + i) * 7 % db.Len()
			}
			return c.get(fmt.Sprintf("/graph?id=%d", id))
		}},
		{"stats", func(c *client, w, i int) int { return c.get("/stats") }},
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
					if code := op(c, w, i); code != 200 {
						t.Errorf("%s worker %d iter %d: status %d", name, w, i, code)
						return
					}
				}
			}(shape.name, shape.op, w)
		}
	}
	wg.Wait()

	if want := before + int(inserts.Load()); db.Len() != want {
		t.Errorf("db len %d after storm, want %d (%d inserts)", db.Len(), want, inserts.Load())
	}
	if inserts.Load() != workers*iters {
		t.Errorf("only %d/%d inserts succeeded", inserts.Load(), workers*iters)
	}
}
