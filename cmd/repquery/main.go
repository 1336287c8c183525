// Command repquery answers one top-k representative query against a
// generated or saved dataset and prints the answer set with its
// representative power and compression ratio.
//
// Usage:
//
//	repquery -dataset dud -n 1000 -k 10
//	repquery -in molecules.gdb -theta 12 -k 5 -engine polished
//	repquery -dataset dblp -n 500 -k 8 -traditional
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"graphrep"
	"graphrep/internal/graph"
)

func main() {
	var (
		name        = flag.String("dataset", "dud", "dataset preset: dud, dblp, amazon, cascades, bugs (ignored with -in)")
		n           = flag.Int("n", 500, "number of graphs to generate (ignored with -in)")
		seed        = flag.Int64("seed", 42, "generation seed")
		in          = flag.String("in", "", "read the database from this file instead of generating")
		theta       = flag.Float64("theta", 0, "distance threshold θ (0 = auto from the distance distribution)")
		k           = flag.Int("k", 10, "answer budget k")
		dim         = flag.Int("dim", -1, "relevance feature dimension (-1 = all dimensions)")
		traditional = flag.Bool("traditional", false, "also run the traditional score-only top-k for comparison")
		suggest     = flag.Bool("suggest", false, "sweep indexed thresholds and suggest a θ (\"zoom level\") before querying")
		engineName  = flag.String("engine", "nbindex", "query engine: nbindex (indexed greedy), exact (quadratic greedy), polished (greedy + swap local search)")
		dotDir      = flag.String("dot", "", "write each answer graph as Graphviz DOT into this directory")
		stats       = flag.Bool("stats", false, "print telemetry aggregates (distance computations, cache, NB-Index work) after the query")
		workers     = flag.Int("workers", 0, "worker goroutines for index construction and each query's vantage pass (0 = GOMAXPROCS; the answer is identical for any value)")
		shards      = flag.Int("shards", 1, "index shards (contiguous ID-range partitions; the answer is identical for any value)")
	)
	flag.Parse()
	if *k <= 0 {
		usageError("-k must be >= 1, got %d", *k)
	}
	if *workers < 0 {
		usageError("-workers must be >= 0 (0 = GOMAXPROCS), got %d", *workers)
	}
	if *shards < 1 {
		usageError("-shards must be >= 1, got %d", *shards)
	}
	if *theta < 0 {
		usageError("-theta must be >= 0 (0 = auto), got %g", *theta)
	}
	if *in == "" && *n <= 0 {
		usageError("-n must be >= 1 when generating a dataset, got %d", *n)
	}

	db, err := loadDatabase(*in, *name, *n, *seed)
	if err != nil {
		fatal(err)
	}
	st := db.Stats()
	fmt.Printf("database: %d graphs, avg |V|=%.1f avg |E|=%.1f, %d labels\n",
		st.Graphs, st.AvgNodes, st.AvgEdges, st.Labels)

	start := time.Now()
	engine, err := graphrep.Open(db, graphrep.Options{Seed: *seed, Workers: *workers, Shards: *shards})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("index built in %v (%.1f KiB, %d shard(s))\n",
		time.Since(start).Round(time.Millisecond), float64(engine.IndexBytes())/1024, engine.Shards())

	var dims []int
	if *dim >= 0 {
		dims = []int{*dim}
	}
	rel := graphrep.FirstQuartileRelevance(db, dims)
	if *suggest {
		sess, err := engine.NewSession(rel)
		if err != nil {
			fatal(err)
		}
		points, err := sess.SweepTheta(*k)
		if err != nil {
			fatal(err)
		}
		fmt.Println("θ sweep (coverage vs zoom level):")
		for _, p := range points {
			fmt.Printf("  θ=%-8.2f π=%.3f CR=%.1f |A|=%d\n", p.Theta, p.Power, p.CR, p.AnswerSize)
		}
		best, err := graphrep.SuggestTheta(points)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("suggested θ = %.2f (knee of the coverage curve)\n", best.Theta)
		if *theta == 0 {
			*theta = best.Theta
		}
	}
	if *theta == 0 {
		*theta = autoTheta(db)
		fmt.Printf("auto θ = %.2f\n", *theta)
	}
	query := graphrep.Query{Relevance: rel, Theta: *theta, K: *k}
	start = time.Now()
	var res *graphrep.Result
	switch *engineName {
	case "nbindex":
		res, err = engine.TopKRepresentative(query)
	case "exact":
		res, err = engine.TopKRepresentativeExact(query)
	case "polished":
		res, err = engine.TopKRepresentativePolished(query)
	default:
		fatal(fmt.Errorf("unknown engine %q", *engineName))
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("query answered in %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("answer (%d of %d relevant covered, π=%.3f, CR=%.1f):\n",
		res.Covered, res.Relevant, res.Power, res.CompressionRatio())
	for i, id := range res.Answer {
		g := db.Graph(id)
		gain := "-" // local search reorders picks, so marginal gains no longer apply
		if i < len(res.Gains) {
			gain = fmt.Sprint(res.Gains[i])
		}
		fmt.Printf("  %2d. graph %-6d |V|=%-3d |E|=%-3d marginal gain=%s\n",
			i+1, id, g.Order(), g.Size(), gain)
	}

	if *dotDir != "" {
		if err := os.MkdirAll(*dotDir, 0o755); err != nil {
			fatal(err)
		}
		for i, id := range res.Answer {
			path := filepath.Join(*dotDir, fmt.Sprintf("answer_%02d_graph_%d.dot", i+1, id))
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			err = graph.WriteDOT(f, db.Graph(id), fmt.Sprintf("graph_%d", id))
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fatal(err)
			}
		}
		fmt.Printf("wrote %d DOT files to %s\n", len(res.Answer), *dotDir)
	}

	if *traditional {
		top := engine.TraditionalTopK(graphrep.DimensionScore(dims), *k)
		p := engine.Power(rel, top, *theta)
		fmt.Printf("traditional top-%d: %v (π=%.3f)\n", *k, top, p)
	}

	if *stats {
		snap := engine.Telemetry().Snapshot()
		fmt.Println("telemetry:")
		fmt.Printf("  distance computations  %d\n", snap.DistanceComputations)
		if snap.CacheHits+snap.CacheMisses > 0 {
			hitRate := float64(snap.CacheHits) / float64(snap.CacheHits+snap.CacheMisses)
			fmt.Printf("  cache                  %d hits / %d misses (%.1f%% hit rate), %d entries\n",
				snap.CacheHits, snap.CacheMisses, 100*hitRate, snap.CacheEntries)
		}
		fmt.Printf("  NB-Index queries       %d\n", snap.Queries)
		qt := snap.QueryTotals
		fmt.Printf("  per-query work totals  pq pops=%d verified leaves=%d candidate scans=%d exact distances=%d pruned distances=%d\n",
			qt.PQPops, qt.VerifiedLeaves, qt.CandidateScans, qt.ExactDistances, qt.PrunedDistances)
		if pr := snap.Prune; pr.Pruned()+pr.FullSolves() > 0 {
			fmt.Printf("  bound cascade          embedding=%d rowmin=%d greedy=%d dual=%d full solves=%d\n",
				pr.Embedding, pr.RowMin, pr.Greedy, pr.Dual, pr.FullSolves())
		}
	}
}

// loadDatabase generates the corpus or opens -in by content: a GRDB001
// container is memory-mapped (flat open time, near-zero heap), anything else
// parses as the text format.
func loadDatabase(path, name string, n int, seed int64) (*graphrep.Database, error) {
	if path == "" {
		return graphrep.GenerateDataset(name, n, seed)
	}
	return graphrep.LoadDatabaseFile(path)
}

// autoTheta samples pairwise distances and picks a low quantile, mirroring
// how the paper selects per-dataset thresholds from the distance CDF.
func autoTheta(db *graphrep.Database) float64 {
	n := db.Len()
	if n < 2 {
		return 1
	}
	var ds []float64
	step := n/64 + 1
	for i := 0; i < n; i += step {
		for j := i + 1; j < n; j += step {
			ds = append(ds, graphrep.Distance(db.Graph(graphrep.ID(i)), db.Graph(graphrep.ID(j))))
		}
	}
	if len(ds) == 0 {
		return 1
	}
	// 6th percentile by selection.
	k := len(ds) * 6 / 100
	for i := 0; i <= k; i++ {
		min := i
		for j := i + 1; j < len(ds); j++ {
			if ds[j] < ds[min] {
				min = j
			}
		}
		ds[i], ds[min] = ds[min], ds[i]
	}
	if ds[k] <= 0 {
		return 1
	}
	return ds[k]
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "repquery:", err)
	os.Exit(1)
}

// usageError rejects an invalid flag value: the complaint plus the usage
// text on stderr, exit status 2 (flag's own convention for bad invocations,
// distinct from runtime failures, which exit 1 via fatal).
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "repquery: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}
