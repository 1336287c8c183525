// Command repserve serves top-k representative queries over HTTP. It
// generates or loads a database, builds (or loads) the NB-Index, and exposes
// the JSON API of internal/server.
//
// Usage:
//
//	repserve -dataset dud -n 2000 -addr :8080
//	repserve -in molecules.gdb -index molecules.nbx -addr :8080
//
// Example request:
//
//	curl -s localhost:8080/query -d '{"relevance":{"kind":"quartile"},"theta":10,"k":5}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"graphrep"
	"graphrep/internal/atomicfile"
	"graphrep/internal/server"
)

func main() {
	var (
		name     = flag.String("dataset", "dud", "dataset preset (ignored with -in)")
		n        = flag.Int("n", 1000, "graphs to generate (ignored with -in)")
		seed     = flag.Int64("seed", 42, "generation seed")
		in       = flag.String("in", "", "load the database from this file")
		index    = flag.String("index", "", "load/store the index at this file (skips rebuild when present)")
		addr     = flag.String("addr", ":8080", "listen address")
		pprofOn  = flag.Bool("pprof", false, "mount runtime profiles under /debug/pprof/")
		drainFor = flag.Duration("drain", 10*time.Second, "graceful-shutdown timeout for in-flight requests")
		workers  = flag.Int("workers", 0, "worker goroutines for index construction and each query's vantage pass (0 = GOMAXPROCS; results are identical for any value)")
		queryTO  = flag.Duration("query-timeout", 0, "per-request deadline for /query and /sweep (0 = none; expired queries answer 504)")
		shards   = flag.Int("shards", 1, "index shards; inserts write-lock only the last shard, so reads of other shards never wait (answers identical for any value; ignored when loading a stored index, which fixes its own shard count)")
	)
	flag.Parse()
	if *workers < 0 {
		usageError("-workers must be >= 0 (0 = GOMAXPROCS), got %d", *workers)
	}
	if *shards < 1 {
		usageError("-shards must be >= 1, got %d", *shards)
	}
	if *queryTO < 0 {
		usageError("-query-timeout must be >= 0 (0 = none), got %v", *queryTO)
	}
	if *in == "" && *n <= 0 {
		usageError("-n must be >= 1 when generating a dataset, got %d", *n)
	}

	db, err := loadDatabase(*in, *name, *n, *seed)
	if err != nil {
		log.Fatal(err)
	}
	engine, err := openEngine(db, *index, *seed, *workers, *shards)
	if err != nil {
		log.Fatal(err)
	}
	st := db.Stats()
	log.Printf("serving %d graphs (avg |V|=%.1f, %d index shard(s)) on %s",
		st.Graphs, st.AvgNodes, engine.Shards(), *addr)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           server.New(engine, server.Options{Pprof: *pprofOn, QueryTimeout: *queryTO}).Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	// Serve until SIGINT/SIGTERM, then drain in-flight requests before
	// exiting so long-running queries are not cut off mid-response.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills immediately
		log.Printf("shutting down (draining for up to %v)", *drainFor)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Fatalf("shutdown: %v", err)
		}
	}
}

// usageError rejects an invalid flag value: the complaint plus the usage
// text on stderr, exit status 2 (flag's own convention for bad invocations,
// distinct from runtime failures, which exit 1 via log.Fatal).
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "repserve: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// loadDatabase generates the corpus or opens -in by content: a GRDB001
// container is memory-mapped — the server starts serving with a flat open
// cost and corpus pages fault in as queries touch them — anything else
// parses as the text format onto the heap.
func loadDatabase(path, name string, n int, seed int64) (*graphrep.Database, error) {
	if path == "" {
		return graphrep.GenerateDataset(name, n, seed)
	}
	return graphrep.LoadDatabaseFile(path)
}

// openEngine loads a persisted index when available (its stored shard count
// wins over the -shards flag), otherwise builds one (on up to workers
// goroutines, split into shards partitions) and persists it to indexPath
// (when given). Stored v4 indexes are memory-mapped — the process starts
// serving immediately and index pages fault in on first use; the mapping
// lives as long as the process, so the engine is never Closed here.
func openEngine(db *graphrep.Database, indexPath string, seed int64, workers, shards int) (*graphrep.Engine, error) {
	if indexPath != "" {
		if _, err := os.Stat(indexPath); err == nil {
			engine, err := graphrep.OpenWithIndexFile(db, indexPath, graphrep.Options{Workers: workers})
			if err == nil {
				log.Printf("loaded index from %s (%d shard(s))", indexPath, engine.Shards())
				return engine, nil
			}
			log.Printf("stored index unusable (%v); rebuilding", err)
		}
	}
	start := time.Now()
	engine, err := graphrep.Open(db, graphrep.Options{Seed: seed, Workers: workers, Shards: shards})
	if err != nil {
		return nil, err
	}
	log.Printf("index built in %v", time.Since(start).Round(time.Millisecond))
	if indexPath != "" {
		if err := atomicfile.Write(indexPath, engine.SaveIndex); err != nil {
			return nil, fmt.Errorf("persist index: %w", err)
		}
		log.Printf("index persisted to %s", indexPath)
	}
	return engine, nil
}
