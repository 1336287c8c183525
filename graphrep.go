// Package graphrep answers top-k representative queries on graph databases,
// implementing Ranu, Hoang & Singh, "Answering Top-k Representative Queries
// on Graph Databases" (SIGMOD 2014).
//
// Given a database of labelled graphs tagged with feature vectors, a
// query-time relevance function, a distance threshold θ, and a budget k, a
// top-k representative query returns the k relevant graphs that together
// represent (lie within θ of) as many relevant graphs as possible. The
// problem is NP-hard; the greedy answer computed here carries the best
// possible polynomial-time guarantee of (1 − 1/e) of the optimum.
//
// The Engine type wraps the paper's NB-Index: a combination of vantage
// orderings (a Lipschitz embedding of the graph metric space) and the
// NB-Tree (a hierarchical clustering carrying representative-power upper
// bounds), which answers queries with a small fraction of the graph distance
// computations a direct implementation needs, and supports interactive
// refinement of θ at a fraction of the initial query cost.
//
// Basic use:
//
//	db, _ := graphrep.GenerateDataset("dud", 1000, 42)
//	engine, _ := graphrep.Open(db)
//	res, _ := engine.TopKRepresentative(graphrep.Query{
//		Relevance: func(f []float64) bool { return f[0] > 0.8 },
//		Theta:     10,
//		K:         5,
//	})
//
// For repeated queries with the same relevance function (e.g. tuning θ),
// open a Session:
//
//	sess, _ := engine.NewSession(relevance)
//	res1, _ := sess.TopK(10, 5)
//	res2, _ := sess.TopK(9, 5) // refinement: far cheaper than a new query
package graphrep

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"time"

	"graphrep/internal/core"
	"graphrep/internal/dataset"
	"graphrep/internal/ged"
	"graphrep/internal/graph"
	"graphrep/internal/metric"
	"graphrep/internal/mmapfile"
	"graphrep/internal/nbindex"
	"graphrep/internal/pool"
	"graphrep/internal/shard"
	"graphrep/internal/telemetry"
)

// Re-exported core types. Graphs are immutable; Database is the indexed
// collection all queries run against.
type (
	// Graph is an immutable labelled undirected graph with a feature vector.
	Graph = graph.Graph
	// ID identifies a graph within a Database.
	ID = graph.ID
	// Label identifies a vertex or edge type.
	Label = graph.Label
	// Builder assembles a Graph.
	Builder = graph.Builder
	// Database is an ordered collection of graphs.
	Database = graph.Database
	// Relevance classifies a graph as relevant from its feature vector.
	Relevance = core.Relevance
	// Score ranks graphs for traditional top-k queries.
	Score = core.Score
	// Query is one top-k representative query.
	Query = core.Query
	// Result is the answer to a top-k representative query.
	Result = core.Result
)

// NewBuilder returns a graph builder pre-sized for n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// NewDatabase assembles a database from graphs whose IDs equal their
// positions.
func NewDatabase(graphs []*Graph) (*Database, error) { return graph.NewDatabase(graphs) }

// ReadDatabase parses the text exchange format produced by WriteDatabase.
func ReadDatabase(r io.Reader) (*Database, error) { return graph.ReadDatabase(r) }

// WriteDatabase writes db in the text exchange format.
func WriteDatabase(w io.Writer, db *Database) error { return graph.WriteDatabase(w, db) }

// SaveDatabase writes db in the GRDB001 flat container format: an
// offset-tabled, 8-byte-aligned binary layout that OpenDatabaseFile serves
// zero-copy from a read-only mapping. Deterministic — the same database
// always produces the same bytes.
func SaveDatabase(w io.Writer, db *Database) error { return graph.SaveDatabase(w, db) }

// OpenDatabaseFile opens a GRDB001 container previously written by
// SaveDatabase. The file is memory-mapped (unless Options.DisableMmap is set
// or the platform lacks support) and graph content is served zero-copy: the
// open cost is independent of the corpus size and the heap retains only
// per-graph handles materialized on demand. Structural validation of the
// content is deferred — session creation, Insert, and Validate run it once on
// first use — so a hostile file fails either at open (malformed layout) or on
// the first validated access, never with undefined behavior. Graphs appended
// afterwards live on the heap; the mapped prefix stays immutable. Call
// Database.Close when no reads remain in flight to release the mapping.
func OpenDatabaseFile(path string, opts ...Options) (*Database, error) {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	return graph.OpenDatabaseFile(path, o.DisableMmap)
}

// LoadDatabaseFile opens a database file of either supported format,
// dispatching on content: files starting with the GRDB001 magic open through
// OpenDatabaseFile (zero-copy mapping, O(1) open), anything else parses as
// the text exchange format onto the heap. This is what the command-line
// tools call, so a .grdb corpus drops into any -in flag that previously took
// a text file.
func LoadDatabaseFile(path string, opts ...Options) (*Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var magic [8]byte
	n, err := io.ReadFull(f, magic[:])
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		f.Close()
		return nil, err
	}
	if n == len(magic) && magic == graph.GRDBMagic {
		f.Close()
		return OpenDatabaseFile(path, opts...)
	}
	defer f.Close()
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	return graph.ReadDatabase(f)
}

// GenerateDataset builds one of the synthetic datasets emulating the paper's
// corpora: "dud" (molecules), "dblp" (collaboration neighborhoods), or
// "amazon" (co-purchase neighborhoods). Deterministic in (n, seed).
func GenerateDataset(name string, n int, seed int64) (*Database, error) {
	return dataset.ByName(name, n, seed)
}

// Distance computes the star-matching graph distance — the metric d(g, g')
// used by the engine (a true metric approximating graph edit distance; see
// internal/ged).
func Distance(g1, g2 *Graph) float64 { return ged.StarDistance(g1, g2) }

// Metric computes the distance between two database graphs. Custom metrics
// supplied to Open must be symmetric, non-negative, zero on identical IDs,
// and satisfy the triangle inequality — every pruning theorem the index
// relies on assumes it. The star-matching default always qualifies.
type Metric interface {
	Distance(a, b ID) float64
}

// MetricFunc adapts a plain function to the Metric interface.
type MetricFunc func(a, b ID) float64

// Distance implements Metric.
func (f MetricFunc) Distance(a, b ID) float64 { return f(a, b) }

// Options configure Open.
type Options struct {
	// NumVPs is the number of vantage points; 0 picks a default scaled to
	// the database size.
	NumVPs int
	// Branching is the NB-Tree fan-out; 0 defaults to 4.
	Branching int
	// ThetaGrid lists the thresholds to index, SweepTheta's default points;
	// nil derives a grid from the sampled distance distribution (§7.1).
	ThetaGrid []float64
	// Seed drives index construction randomness; the default is 1.
	Seed int64
	// Metric overrides the database distance; nil uses the star-matching
	// metric. Custom metrics must satisfy the triangle inequality. Wrap
	// expensive metrics in a memoizing layer if repeated queries matter;
	// the default metric is cached automatically.
	Metric Metric
	// Workers bounds the goroutines used for index construction (the θ-grid
	// sampling, the vantage distance matrix, the NB-Tree partition fills)
	// and each query's vantage pass; ≤ 0 means GOMAXPROCS. The index bytes and
	// every answer are identical for any value — all randomized decisions
	// stay single-threaded and parallel work is pre-partitioned — so Workers
	// trades nothing but wall time. Custom metrics must be safe for
	// concurrent use (the built-in ones are).
	Workers int
	// Shards partitions the database into that many contiguous ID ranges,
	// each owning its own vantage rows and NB-Tree, built concurrently and
	// queried by a scatter-gather coordinator. Values ≤ 1 mean one shard
	// (the classic layout); counts beyond the database size are clamped.
	// Answers are byte-identical for any shard count — shards share one
	// global vantage point set and θ grid, so bounds compose exactly — while
	// builds parallelize per shard and internal/server can confine Insert's
	// write lock to the one shard it lands in. Per-query work counters
	// (QueryStats) do vary with the shard count, since each count's forest
	// has its own shape.
	Shards int
	// DisableBoundedKernel turns off the threshold-aware distance kernel:
	// every candidate test d(q, g) ≤ θ falls back to a full exact distance
	// computation instead of the bound cascade (precomputed-embedding filter,
	// row-minima, greedy upper bound, Hungarian dual early exit).
	// Answers, sweeps, and index bytes are byte-identical either way — the
	// kernel only ever changes how a decision is reached, never the decision —
	// so this switch exists for baseline benchmarks (repbench -bench-kernel
	// measures the savings against it) and for bisecting a suspected kernel
	// difference. The sketch test in each query's vantage pass is part of
	// the index's leaf bound, not of the kernel, and runs either way, so
	// both settings threshold-test the same candidate lists.
	DisableBoundedKernel bool
	// DisableMmap makes OpenWithIndexFile read the index file into memory
	// instead of memory-mapping it. Queries, answers, and statistics are
	// identical either way — only residency changes: a mapped index is paged
	// in on demand and shared between processes, a read one is private heap.
	// Platforms without mmap support always read; this forces the same on
	// platforms that have it.
	DisableMmap bool
}

// Engine answers top-k representative queries over one database through an
// NB-Index. Queries (TopKRepresentative, Session.TopK, SweepTheta) are safe
// to run concurrently from any number of goroutines; Insert is the only
// mutating operation and must be externally excluded from in-flight queries.
type Engine struct {
	db  *Database
	m   metric.Metric
	set *shard.Set
	tel *Telemetry
	// closer releases the index file mapping when the engine came from
	// OpenWithIndexFile; nil otherwise. Guarded only by the Close contract:
	// callers must not close while queries are in flight.
	closer io.Closer
}

// Close releases the engine's resources — today, the index file mapping held
// by an engine opened with OpenWithIndexFile. It is a no-op for engines from
// Open or OpenWithIndex. No queries, sessions, or sweeps may be in flight or
// issued afterwards: their data lives in the mapping being unmapped.
func (e *Engine) Close() error {
	if e.closer == nil {
		return nil
	}
	c := e.closer
	e.closer = nil
	return c.Close()
}

// Open indexes db and returns a query engine. It is OpenContext with no
// cancellation.
func Open(db *Database, opts ...Options) (*Engine, error) {
	return OpenContext(context.Background(), db, opts...)
}

// OpenContext indexes db and returns a query engine, observing ctx
// throughout construction: the θ-grid sampling, the vantage matrix fill,
// and the NB-Tree clustering all check cancellation at phase boundaries and
// per work batch, so a cancelled or expired context makes OpenContext
// return ctx.Err() promptly with no engine. Construction parallelism is
// bounded by Options.Workers; the resulting index is byte-identical for any
// worker count.
func OpenContext(ctx context.Context, db *Database, opts ...Options) (*Engine, error) {
	if db == nil || db.Len() == 0 {
		return nil, fmt.Errorf("graphrep: empty database")
	}
	if err := db.Validate(); err != nil {
		return nil, err
	}
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	m, counter, cache, stages, err := instrumentMetric(db, o.Metric)
	if err != nil {
		return nil, err
	}
	if o.DisableBoundedKernel {
		// Hide the bounded capability: every threshold test below this point
		// computes a full exact distance. The counting and caching layers
		// above keep working unchanged (they sit inside the wrapper).
		m = metric.ExactOnly(m)
	}
	rng := rand.New(rand.NewSource(o.Seed))
	gridStart := time.Now() //lint:allow detrand build-phase wall-time gauge; timing only, never influences index content
	grid := o.ThetaGrid
	if grid == nil {
		samples := db.Len() * 8
		if samples > 20000 {
			samples = 20000
		}
		grid, err = nbindex.ChooseGridContext(ctx, db, m, 10, samples, o.Workers, rng)
		if err != nil {
			return nil, err
		}
		if len(grid) == 0 {
			grid = []float64{1}
		}
	}
	gridTime := time.Since(gridStart)
	numVPs := o.NumVPs
	if numVPs <= 0 {
		numVPs = 4
		for n := db.Len(); n > 100; n /= 10 {
			numVPs *= 2 // 4 VPs per decade of database size
		}
		if numVPs > 100 {
			numVPs = 100
		}
	}
	if numVPs > db.Len() {
		numVPs = db.Len()
	}
	branching := o.Branching
	if branching == 0 {
		branching = 4
	}
	set, err := shard.BuildContext(ctx, db, m, shard.Options{
		Shards:    o.Shards,
		NumVPs:    numVPs,
		Branching: branching,
		ThetaGrid: grid,
		Workers:   o.Workers,
	}, rng)
	if err != nil {
		return nil, err
	}
	primeEmbeddings(set, stages)
	tel, err := newEngineTelemetry(db, set, counter, cache, stages, gridTime, o.Workers)
	if err != nil {
		return nil, err
	}
	return &Engine{db: db, m: m, set: set, tel: tel}, nil
}

// primeEmbeddings hands the per-shard filter embeddings carried by the index
// (built or loaded) to the default metric, so threshold tests on far pairs
// resolve from the cached vectors without ever materializing a star
// signature. View-backed shards (v4, typically mmapped) prime their encoded
// table instead — the metric decodes records lazily on first use, so opening
// a large index stays O(1) while the decoded values (and therefore every
// decision and stage counter) are identical to eager priming. It also turns
// on the sketch test of every query's vantage pass, which drops candidates
// whose star-histogram sketches already prove them farther than θ. A no-op
// for custom metrics (stages is nil): they have no embedding tier, and the
// sketch bounds the star distance only, so their pass stays unfiltered.
func primeEmbeddings(set *shard.Set, stages metric.StageCounter) {
	if stages == nil {
		return
	}
	set.UseSketchFilter()
	for i := 0; i < set.Shards(); i++ {
		part := set.Part(i)
		if tab := part.EmbeddingTable(); tab != nil {
			if tp, ok := stages.(metric.EmbeddingTablePrimer); ok {
				tp.PrimeEmbeddingTable(part.Base(), tab)
			}
			continue
		}
		if p, ok := stages.(metric.EmbeddingPrimer); ok {
			p.PrimeEmbeddings(part.Base(), part.Embeddings())
		}
	}
}

// instrumentMetric wraps the configured metric for observability: a counting
// layer (distance computations are the paper's central cost measure) and,
// for the default star metric, a memoizing cache whose hit/miss totals feed
// the same telemetry. Custom metrics are sanity-checked before wrapping so
// the spot-check probes don't pollute the counters.
func instrumentMetric(db *Database, custom Metric) (metric.Metric, *metric.Counter, *metric.Cache, metric.StageCounter, error) {
	if custom == nil {
		star := metric.Star(db)
		counter := metric.NewCounter(star)
		cache := metric.NewCache(counter)
		// The star metric tracks which cascade stage resolved each bounded
		// threshold test; surface that breakdown to the telemetry layer.
		stages, _ := star.(metric.StageCounter)
		return cache, counter, cache, stages, nil
	}
	// Catch broken custom metrics early: a handful of cheap spot checks on
	// the properties every index theorem assumes.
	if err := sanityCheckMetric(db, custom); err != nil {
		return nil, nil, nil, nil, err
	}
	counter := metric.NewCounter(custom)
	return counter, counter, nil, nil, nil
}

// OpenWithIndex reopens a database with an index previously persisted by
// SaveIndex, skipping index construction entirely. The database must be the
// same one the index was built over. It reads r whole onto the heap and
// serves the index from that copy; to map an index file instead, use
// OpenWithIndexFile. Only the current format (NBIDX004) opens: any other
// file, including the retired NBIDX001–NBIDX003 layouts, fails with an error
// that names its magic, and the index must be rebuilt with Open. It is
// OpenWithIndexContext with no cancellation.
func OpenWithIndex(db *Database, r io.Reader, opts ...Options) (*Engine, error) {
	return OpenWithIndexContext(context.Background(), db, r, opts...)
}

// OpenWithIndexContext is OpenWithIndex with cancellation: the load observes
// ctx at every shard-section boundary, so a cancelled or expired context
// makes it return ctx.Err() promptly with no engine.
func OpenWithIndexContext(ctx context.Context, db *Database, r io.Reader, opts ...Options) (*Engine, error) {
	return openWithIndex(db, opts, func(m metric.Metric) (*shard.Set, io.Closer, error) {
		set, err := shard.ReadContext(ctx, r, db, m)
		return set, nil, err
	})
}

// OpenWithIndexFile reopens a database with an index file previously written
// by SaveIndex. The file is memory-mapped (unless Options.DisableMmap is set
// or the platform lacks support, in which case it is read into memory) and
// served zero-copy: the open cost is independent of the index size, pages
// fault in on first use, and concurrent queries share one read-only mapping.
// Call Engine.Close when done to release the mapping — after no queries
// remain in flight. Files in any other format fail as in OpenWithIndex. It
// is OpenWithIndexFileContext with no cancellation.
func OpenWithIndexFile(db *Database, path string, opts ...Options) (*Engine, error) {
	return OpenWithIndexFileContext(context.Background(), db, path, opts...)
}

// OpenWithIndexFileContext is OpenWithIndexFile with cancellation, observed
// at every shard boundary of the load.
func OpenWithIndexFileContext(ctx context.Context, db *Database, path string, opts ...Options) (*Engine, error) {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	return openWithIndex(db, opts, func(m metric.Metric) (*shard.Set, io.Closer, error) {
		f, err := openIndexFile(path, o.DisableMmap)
		if err != nil {
			return nil, nil, err
		}
		set, err := shard.ReadBytesContext(ctx, f.Bytes(), db, m)
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		// The set serves queries from views over the file's bytes; the
		// mapping must outlive it, so hand the file to the engine.
		return set, f, nil
	})
}

// openIndexFile maps path read-only, or reads it when mapping is disabled or
// unsupported.
func openIndexFile(path string, disableMmap bool) (*mmapfile.File, error) {
	if disableMmap {
		return mmapfile.OpenReadAll(path)
	}
	return mmapfile.Open(path)
}

// openWithIndex is the shared tail of every index-loading open: instrument
// the metric, run the format-specific load, prime embeddings, and wire
// telemetry.
func openWithIndex(db *Database, opts []Options, load func(metric.Metric) (*shard.Set, io.Closer, error)) (*Engine, error) {
	if db == nil || db.Len() == 0 {
		return nil, fmt.Errorf("graphrep: empty database")
	}
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	m, counter, cache, stages, err := instrumentMetric(db, o.Metric)
	if err != nil {
		return nil, err
	}
	if o.DisableBoundedKernel {
		m = metric.ExactOnly(m)
	}
	set, closer, err := load(m)
	if err != nil {
		return nil, err
	}
	// No construction happened, but every query's vantage pass still fans
	// out; honor the Workers option for it. Build-phase gauges read as zero.
	set.SetWorkers(o.Workers)
	primeEmbeddings(set, stages)
	tel, err := newEngineTelemetry(db, set, counter, cache, stages, 0, o.Workers)
	if err != nil {
		if closer != nil {
			closer.Close()
		}
		return nil, err
	}
	return &Engine{db: db, m: m, set: set, tel: tel, closer: closer}, nil
}

// SaveIndex persists the engine's NB-Index so a later OpenWithIndex (or
// OpenWithIndexFile, which memory-maps it) can skip construction — the
// offline step of Fig. 6(k). The format, NBIDX004, is a flat offset-tabled
// layout recording every shard along with its filter embeddings, readable in
// place.
func (e *Engine) SaveIndex(w io.Writer) error { return e.set.Encode(w) }

// Shards returns the number of index shards (1 unless Options.Shards asked
// for more, or the loaded index file recorded more).
func (e *Engine) Shards() int { return e.set.Shards() }

// ShardFor returns the index (0 ≤ p < Shards()) of the shard owning graph
// id. Inserts always land in the last shard; internal/server uses this to
// scope read locks to the one shard a request touches.
func (e *Engine) ShardFor(id ID) int { return e.set.PartFor(id) }

// Insert appends a graph to the database and extends the index
// incrementally — |V| vantage distances plus a tree descent instead of a
// rebuild. The graph's ID must equal Database().Len(). Cluster bounds
// loosen slightly as inserts accumulate (answers stay exact; queries slow
// gradually), so rebuild with Open after heavy insert volume. Not safe
// concurrently with queries — the caller must exclude in-flight queries
// externally; internal/server is the worked example, holding a
// sync.RWMutex write lock around Insert while every query path reads under
// RLock. Fields accessed under such a lock are annotated
// `// guarded by <mu>` in their struct declarations; the lockguard analyzer
// (cmd/replint) then enforces that only functions which lock that mutex —
// or are named *Locked to declare the caller holds it — touch them.
// Sessions created before an Insert do not see the new graph.
func (e *Engine) Insert(g *Graph) error {
	if err := e.db.Append(g); err != nil {
		return err
	}
	if err := e.set.Insert(g.ID()); err != nil {
		return err
	}
	// Only the last shard grew: refresh its gauges and hand the new graph's
	// filter embedding to the metric (already-cached vectors are kept).
	last := e.set.Shards() - 1
	e.tel.setShardGauges(e.set, last)
	if p, ok := e.tel.stages.(metric.EmbeddingPrimer); ok {
		part := e.set.Part(last)
		p.PrimeEmbeddings(part.Base(), part.Embeddings())
	}
	return nil
}

// QueryStats describes the work one indexed TopK call performed: priority
// queue pops, exactly verified leaves, candidate scans, and exact distance
// computations — the efficiency measures of the paper's §8.
type QueryStats = nbindex.QueryStats

// TelemetryRegistry collects the engine's metrics and renders them in the
// Prometheus text exposition format. See Engine.Telemetry.
type TelemetryRegistry = telemetry.Registry

// Telemetry exposes the engine's cumulative observability state: distance
// computation and cache totals, and per-phase NB-Index work histograms
// folded in from every completed query. All counters update atomically on
// the query path; reading them (Snapshot, WritePrometheus) is safe at any
// time, concurrent with queries.
type Telemetry struct {
	reg     *telemetry.Registry
	counter *metric.Counter
	cache   *metric.Cache       // nil when a custom metric is configured
	stages  metric.StageCounter // nil when a custom metric is configured
	nb      *nbindex.Telemetry
	// Per-shard gauges, labelled by decimal shard index. Values are set at
	// Open and refreshed for the last shard by Insert.
	shardGraphs *telemetry.GaugeVec
	shardBytes  *telemetry.GaugeVec
}

// setShardGauges refreshes shard p's size gauges from the set.
func (t *Telemetry) setShardGauges(set *shard.Set, p int) {
	label := strconv.Itoa(p)
	part := set.Part(p)
	t.shardGraphs.With(label).Set(float64(part.Count()))
	t.shardBytes.With(label).Set(float64(part.Bytes()))
}

// newEngineTelemetry builds the engine's metric registry: distance-layer
// counters bridged from metric.Counter/metric.Cache, database and index
// gauges, build-phase wall times, and the nbindex per-query work
// histograms. gridTime is the θ-grid sampling phase (measured by Open,
// which runs it before Build); workers is the configured Options.Workers.
func newEngineTelemetry(db *Database, set *shard.Set, counter *metric.Counter, cache *metric.Cache, stages metric.StageCounter, gridTime time.Duration, workers int) (*Telemetry, error) {
	reg := telemetry.NewRegistry()
	t := &Telemetry{reg: reg, counter: counter, cache: cache, stages: stages}
	var err error
	if err := reg.NewCounterFunc("graphrep_distance_computations_total",
		"Exact graph distance computations issued (including index construction).",
		counter.Count); err != nil {
		return nil, err
	}
	if stages != nil {
		// Bound-cascade breakdown of the default metric's threshold tests.
		// Each stage name is a literal so the metricname analyzer can audit
		// the namespace; the closures re-read the atomic counters per scrape.
		if err := reg.NewCounterFunc("graphrep_metric_prune_embedding_total",
			"Threshold tests resolved by the precomputed-embedding lower bound.",
			func() int64 { return stages.PruneStats().Embedding }); err != nil {
			return nil, err
		}
		if err := reg.NewCounterFunc("graphrep_metric_prune_rowmin_total",
			"Threshold tests decided by the row-minima lower bound.",
			func() int64 { return stages.PruneStats().RowMin }); err != nil {
			return nil, err
		}
		if err := reg.NewCounterFunc("graphrep_metric_rowmin_solved_total",
			"Row-minima decisions that also completed a hardening Hungarian solve.",
			func() int64 { return stages.PruneStats().RowMinSolved }); err != nil {
			return nil, err
		}
		if err := reg.NewCounterFunc("graphrep_metric_prune_greedy_total",
			"Threshold tests resolved by the greedy-assignment upper bound.",
			func() int64 { return stages.PruneStats().Greedy }); err != nil {
			return nil, err
		}
		if err := reg.NewCounterFunc("graphrep_metric_prune_dual_total",
			"Threshold tests resolved by the Hungarian dual-objective early exit.",
			func() int64 { return stages.PruneStats().Dual }); err != nil {
			return nil, err
		}
		if err := reg.NewCounterFunc("graphrep_metric_bounded_exact_total",
			"Threshold tests that needed a completed Hungarian solve.",
			func() int64 { return stages.PruneStats().BoundedExact }); err != nil {
			return nil, err
		}
		if err := reg.NewCounterFunc("graphrep_metric_greedy_tried_total",
			"Threshold tests on which the greedy upper-bound tier ran (adaptive gate attempt denominator).",
			func() int64 { return stages.PruneStats().GreedyTried }); err != nil {
			return nil, err
		}
		if err := reg.NewCounterFunc("graphrep_metric_dual_armed_total",
			"Exact solves run with the dual abort armed (adaptive gate attempt denominator).",
			func() int64 { return stages.PruneStats().DualArmed }); err != nil {
			return nil, err
		}
	}
	if cache != nil {
		if err := reg.NewCounterFunc("graphrep_distance_cache_hits_total",
			"Distance lookups answered from the memo table.", cache.Hits); err != nil {
			return nil, err
		}
		if err := reg.NewCounterFunc("graphrep_distance_cache_misses_total",
			"Distance lookups that computed a fresh distance.", cache.Misses); err != nil {
			return nil, err
		}
		if err := reg.NewGaugeFunc("graphrep_distance_cache_entries",
			"Memoized distance pairs resident in the cache.",
			func() float64 { return float64(cache.Size()) }); err != nil {
			return nil, err
		}
	}
	if err := reg.NewGaugeFunc("graphrep_graphs",
		"Graphs in the database.",
		func() float64 { return float64(db.Len()) }); err != nil {
		return nil, err
	}
	if err := reg.NewGaugeFunc("graphrep_index_bytes",
		"Approximate NB-Index memory footprint.",
		func() float64 { return float64(set.Bytes()) }); err != nil {
		return nil, err
	}
	if err := reg.NewGaugeFunc("graphrep_shards",
		"Index shards (contiguous ID-range partitions).",
		func() float64 { return float64(set.Shards()) }); err != nil {
		return nil, err
	}
	t.shardGraphs, err = reg.NewGaugeVec("graphrep_shard_graphs",
		"Graphs owned by each index shard.", "shard")
	if err != nil {
		return nil, err
	}
	t.shardBytes, err = reg.NewGaugeVec("graphrep_shard_index_bytes",
		"Approximate memory footprint of each index shard.", "shard")
	if err != nil {
		return nil, err
	}
	shardBuild, err := reg.NewGaugeVec("graphrep_shard_build_seconds",
		"Wall time spent building each shard's vantage rows and NB-Tree.", "shard")
	if err != nil {
		return nil, err
	}
	for p := 0; p < set.Shards(); p++ {
		t.setShardGauges(set, p)
		pt := set.Part(p).Timing()
		shardBuild.With(strconv.Itoa(p)).Set((pt.Vantage + pt.Tree).Seconds())
	}
	// Build-phase wall times: fixed after Open, so the closures capture the
	// computed values. All zero when the index was loaded from disk. Each
	// registration passes its name as a literal so the metricname analyzer can
	// audit the full namespace at build time.
	timing := set.Timing()
	secsGauge := func(d time.Duration) func() float64 {
		secs := d.Seconds()
		return func() float64 { return secs }
	}
	if err := reg.NewGaugeFunc("graphrep_build_grid_seconds",
		"Wall time of the θ-grid distance sampling phase.",
		secsGauge(gridTime)); err != nil {
		return nil, err
	}
	if err := reg.NewGaugeFunc("graphrep_build_vpselect_seconds",
		"Wall time of the vantage point selection phase.",
		secsGauge(timing.VPSelect)); err != nil {
		return nil, err
	}
	if err := reg.NewGaugeFunc("graphrep_build_vantage_seconds",
		"Wall time of the vantage distance-matrix phase.",
		secsGauge(timing.Vantage)); err != nil {
		return nil, err
	}
	if err := reg.NewGaugeFunc("graphrep_build_tree_seconds",
		"Wall time of the NB-Tree clustering phase.",
		secsGauge(timing.Tree)); err != nil {
		return nil, err
	}
	if err := reg.NewGaugeFunc("graphrep_build_total_seconds",
		"Wall time of index construction (grid sampling plus NB-Index build).",
		secsGauge(gridTime+timing.Total)); err != nil {
		return nil, err
	}
	if err := reg.NewGaugeFunc("graphrep_build_workers",
		"Worker goroutines the build and query vantage-pass pools are bounded by.",
		func() float64 { return float64(pool.Resolve(workers)) }); err != nil {
		return nil, err
	}
	nb, err := nbindex.NewTelemetry(reg)
	if err != nil {
		return nil, err
	}
	set.SetTelemetry(nb)
	t.nb = nb
	return t, nil
}

// Telemetry returns the engine's observability state. The same registry is
// shared by internal/server to expose HTTP metrics alongside the engine's,
// so one GET /metrics scrape covers the whole process.
func (e *Engine) Telemetry() *Telemetry { return e.tel }

// Registry returns the underlying metric registry, for callers that want to
// register additional metrics (the HTTP server does) or render exposition
// output themselves.
func (t *Telemetry) Registry() *TelemetryRegistry { return t.reg }

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format.
func (t *Telemetry) WritePrometheus(w io.Writer) error { return t.reg.WritePrometheus(w) }

// TelemetrySnapshot is a point-in-time copy of the engine's headline
// aggregates, for programmatic consumption (cmd/repquery --stats prints
// one). Counters are cumulative since Open.
type TelemetrySnapshot struct {
	// DistanceComputations counts exact distance computations issued,
	// including those spent building the index.
	DistanceComputations int64
	// CacheHits / CacheMisses / CacheEntries describe the distance memo
	// table; all zero when a custom metric is configured (no cache layer).
	CacheHits, CacheMisses int64
	CacheEntries           int
	// Queries counts completed indexed TopK calls across all sessions.
	Queries int64
	// QueryTotals sums the per-query QueryStats of those calls.
	QueryTotals QueryStats
	// Prune is the bound-cascade breakdown of the default metric's threshold
	// tests — which stage resolved each Within decision, and how many needed
	// a completed Hungarian solve. All zero when a custom metric is
	// configured (no cascade) or DisableBoundedKernel is set (no bounded
	// tests are ever issued).
	Prune PruneStats
}

// PruneStats is the bound-cascade breakdown tracked by the default star
// metric; see TelemetrySnapshot.Prune.
type PruneStats = metric.PruneStats

// Snapshot copies the current aggregate values. Individual fields are read
// atomically but not as one transaction; under concurrent load the fields
// may be mutually inconsistent by at most the queries in flight.
func (t *Telemetry) Snapshot() TelemetrySnapshot {
	s := TelemetrySnapshot{
		DistanceComputations: t.counter.Count(),
		Queries:              t.nb.Queries.Value(),
		QueryTotals:          t.nb.Totals(),
	}
	if t.cache != nil {
		s.CacheHits = t.cache.Hits()
		s.CacheMisses = t.cache.Misses()
		s.CacheEntries = t.cache.Size()
	}
	if t.stages != nil {
		s.Prune = t.stages.PruneStats()
	}
	return s
}

// sanityCheckMetric spot-checks identity, non-negativity, symmetry, and the
// triangle inequality on a few pairs. It cannot prove a metric correct, but
// it catches the common mistakes (asymmetric or unnormalized distances)
// before they silently corrupt index pruning.
func sanityCheckMetric(db *Database, m metric.Metric) error {
	n := db.Len()
	pick := func(i int) ID { return ID(i % n) }
	for i := 0; i < 5 && i < n; i++ {
		a := pick(i * 7)
		if d := m.Distance(a, a); d != 0 {
			return fmt.Errorf("graphrep: custom metric: d(%d,%d) = %v, want 0", a, a, d)
		}
		b, c := pick(i*13+1), pick(i*29+2)
		dab, dba := m.Distance(a, b), m.Distance(b, a)
		if dab < 0 {
			return fmt.Errorf("graphrep: custom metric: d(%d,%d) = %v < 0", a, b, dab)
		}
		if dab != dba {
			return fmt.Errorf("graphrep: custom metric: d(%d,%d)=%v ≠ d(%d,%d)=%v", a, b, dab, b, a, dba)
		}
		if dac, dbc := m.Distance(a, c), m.Distance(b, c); dac > dab+dbc+1e-9 {
			return fmt.Errorf("graphrep: custom metric: triangle inequality violated on (%d,%d,%d)", a, b, c)
		}
	}
	return nil
}

// Database returns the engine's database.
func (e *Engine) Database() *Database { return e.db }

// IndexBytes approximates the index memory footprint.
func (e *Engine) IndexBytes() int64 { return e.set.Bytes() }

// TopKRepresentative answers q through the NB-Index. For repeated queries
// with the same relevance function, use NewSession instead.
func (e *Engine) TopKRepresentative(q Query) (*Result, error) {
	return e.TopKRepresentativeContext(context.Background(), q)
}

// TopKRepresentativeContext is TopKRepresentative with cancellation: both
// the session initialization and the search observe ctx and return
// ctx.Err() promptly once it is cancelled or its deadline passes.
func (e *Engine) TopKRepresentativeContext(ctx context.Context, q Query) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	s, err := e.set.NewSessionContext(ctx, q.Relevance)
	if err != nil {
		return nil, err
	}
	return s.TopKContext(ctx, q.Theta, q.K)
}

// TopKRepresentativeExact answers q with the simple quadratic greedy
// (Alg. 1), bypassing the index. Useful for validation and for tiny
// databases where index construction does not pay off. The answer is
// identical to TopKRepresentative.
func (e *Engine) TopKRepresentativeExact(q Query) (*Result, error) {
	// This path bypasses session creation, so settle a mapped database's
	// deferred content validation here (cached after the first call).
	if err := e.db.EnsureValid(); err != nil {
		return nil, err
	}
	return core.BaselineGreedy(e.db, e.m, q)
}

// TopKRepresentativePolished answers q with the exact greedy followed by
// swap local search: answer members are exchanged for non-members while
// coverage strictly improves. Costs a full pairwise scan of the relevant set
// (like TopKRepresentativeExact) plus the swap rounds; π is ≥ the greedy's.
// Use when answer quality matters more than latency.
func (e *Engine) TopKRepresentativePolished(q Query) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := e.db.EnsureValid(); err != nil {
		return nil, err
	}
	rel := core.Relevant(e.db, q.Relevance)
	nb := core.PairwiseNeighborhoods(e.db, e.m, rel, q.Theta)
	res := core.Greedy(nb, q.K)
	improved, _ := core.LocalSearchImprove(nb, res, 0)
	return improved, nil
}

// TraditionalTopK returns the k highest-scoring graphs — the classical
// formulation the paper's qualitative comparison contrasts with.
func (e *Engine) TraditionalTopK(score Score, k int) []ID {
	return core.TraditionalTopK(e.db, score, k)
}

// Relevant returns the IDs the relevance function selects.
func (e *Engine) Relevant(rel Relevance) []ID { return core.Relevant(e.db, rel) }

// Power evaluates π_θ(answer): the fraction of relevant graphs within θ of
// the answer set. Useful for scoring answer sets from other systems.
func (e *Engine) Power(rel Relevance, answer []ID, theta float64) float64 {
	relevant := core.Relevant(e.db, rel)
	p, _ := core.Power(e.db, e.m, relevant, answer, theta)
	return p
}

// Explain assigns every relevant graph covered by the answer to its nearest
// answer member: the map lists, per exemplar, the graphs it stands for
// (itself included). Costs |answer|·|L_q| distance computations.
func (e *Engine) Explain(rel Relevance, answer []ID, theta float64) map[ID][]ID {
	relevant := core.Relevant(e.db, rel)
	return core.AssignRepresentatives(e.db, e.m, relevant, answer, theta)
}

// Session is the reusable initialization for one relevance function — its
// relevant set — shared by any number of TopK calls at different θ
// (interactive refinement).
type Session struct {
	s *nbindex.Session
}

// NewSession prepares a session for the relevance function.
func (e *Engine) NewSession(rel Relevance) (*Session, error) {
	return e.NewSessionContext(context.Background(), rel)
}

// NewSessionContext is NewSession with cancellation: a context cancelled by
// the time the relevance filter finishes returns ctx.Err().
func (e *Engine) NewSessionContext(ctx context.Context, rel Relevance) (*Session, error) {
	if rel == nil {
		return nil, fmt.Errorf("graphrep: nil relevance function")
	}
	s, err := e.set.NewSessionContext(ctx, rel)
	if err != nil {
		return nil, err
	}
	return &Session{s: s}, nil
}

// TopK answers a top-k representative query at threshold theta. It is safe
// to call concurrently with other queries on the same or other sessions.
// Arguments are validated (k must be ≥ 1, theta non-negative and not NaN)
// so the session path rejects malformed queries just like
// Engine.TopKRepresentative does.
func (s *Session) TopK(theta float64, k int) (*Result, error) { return s.s.TopK(theta, k) }

// TopKContext is TopK with cancellation: the search checks ctx at every
// greedy pick and periodically inside the best-first loop, returning
// ctx.Err() promptly after it fires.
func (s *Session) TopKContext(ctx context.Context, theta float64, k int) (*Result, error) {
	return s.s.TopKContext(ctx, theta, k)
}

// LastStats returns the work statistics of the most recently completed TopK
// call on this session.
func (s *Session) LastStats() QueryStats { return s.s.LastStats() }

// ThetaPoint is one row of a threshold sweep: the quality of the answer the
// engine returns at one θ.
type ThetaPoint = nbindex.ThetaPoint

// SweepTheta answers the query at every indexed threshold (plus any extras)
// and returns the coverage/granularity trade-off curve — the "zoom level"
// explorer of the paper's §7.
func (s *Session) SweepTheta(k int, extra ...float64) ([]ThetaPoint, error) {
	return s.s.SweepTheta(k, extra...)
}

// SweepThetaContext is SweepTheta with cancellation: ctx flows into every
// per-threshold query, so an expired deadline aborts the sweep mid-curve
// with ctx.Err().
func (s *Session) SweepThetaContext(ctx context.Context, k int, extra ...float64) ([]ThetaPoint, error) {
	return s.s.SweepThetaContext(ctx, k, extra...)
}

// SuggestTheta picks the knee of a sweep curve: the threshold past which a
// larger radius buys little extra coverage.
func SuggestTheta(points []ThetaPoint) (ThetaPoint, error) { return nbindex.SuggestTheta(points) }

// RelevantCount returns |L_q| for the session.
func (s *Session) RelevantCount() int { return s.s.RelevantCount() }

// FirstQuartileRelevance returns the paper's default relevance function: a
// graph is relevant when its mean feature score (over dims, or all
// dimensions when dims is nil) falls in the top quartile of the database.
func FirstQuartileRelevance(db *Database, dims []int) Relevance {
	return core.FirstQuartileRelevance(db, dims)
}

// DimensionScore scores a feature vector as the mean over the chosen
// dimensions (all when dims is nil).
func DimensionScore(dims []int) Score { return core.DimensionScore(dims) }

// TopicScore is the cascade query function (Table 1, example 2): the soft
// Jaccard similarity between a graph's topic-weight vector and a query
// topic set.
func TopicScore(topics []int) Score { return core.TopicScore(topics) }

// TopicRelevance classifies a graph as relevant when its TopicScore against
// the query topics reaches tau.
func TopicRelevance(topics []int, tau float64) Relevance { return core.TopicRelevance(topics, tau) }

// WeightedScore is the bug-analysis query function (Table 1, example 3):
// wᵀ·features, e.g. recency-weighted occurrence counts.
func WeightedScore(w []float64) Score { return core.WeightedScore(w) }

// WeightedRelevance classifies a graph as relevant when its WeightedScore
// reaches tau.
func WeightedRelevance(w []float64, tau float64) Relevance { return core.WeightedRelevance(w, tau) }

// WLHash returns a Weisfeiler–Lehman hash of the graph: equal hashes mean
// isomorphic with high probability. Useful for detecting duplicates and
// grouping answer sets into structural families.
func WLHash(g *Graph, rounds int) uint64 { return g.WLHash(rounds) }
