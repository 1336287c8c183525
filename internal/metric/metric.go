// Package metric abstracts the database distance function d(g, g') and
// provides the instrumented wrappers the experiments rely on: a counting
// wrapper (how many expensive distance computations did an algorithm issue —
// the paper's central efficiency measure), a thread-safe memoizing cache, and
// a precomputed full distance matrix (the paper's "best case" baseline in
// Fig. 5(i) and 6(k)).
package metric

import (
	"sync"
	"sync/atomic"

	"graphrep/internal/ged"
	"graphrep/internal/graph"
)

// Metric computes the distance between two database graphs identified by ID.
// Implementations must be symmetric, non-negative, and zero on identical
// arguments; index structures additionally require the triangle inequality.
type Metric interface {
	Distance(a, b graph.ID) float64
}

// Func adapts an ordinary function to the Metric interface.
type Func func(a, b graph.ID) float64

// Distance implements Metric.
func (f Func) Distance(a, b graph.ID) float64 { return f(a, b) }

// Star returns the default database metric: the star-matching distance over
// db, with per-graph star signatures computed lazily and cached. It is safe
// for concurrent use and tolerates databases that grow via Append.
//
// Star also implements EmbeddingTablePrimer: an engine hands the metric each
// index part's encoded embedding table, so far pairs are pruned from the
// table's vectors before any star decomposition happens.
func Star(db *graph.Database) Metric {
	// sigs and embs start empty and grow to the accessed ID on demand (the
	// same append-growth Insert relies on), so constructing the metric —
	// which every engine open does — costs O(1) regardless of database
	// size.
	return &starMetric{
		db:         db,
		gateWarmup: gateWarmupFor(db.Len()),
	}
}

type starMetric struct {
	db *graph.Database
	mu sync.RWMutex
	// sigs[id] is the lazily materialized star signature of id (nil until
	// first needed); embs[id] is its filter embedding, available earlier when
	// decoded from a primed table. Both guarded by mu.
	sigs []*ged.StarSig
	embs []*ged.Embedding
	// tabs lists the primed embedding tables, one per index part; a filter
	// vector not yet in embs is decoded from its covering table on first use
	// and cached. Guarded by mu (the table contents themselves are
	// immutable).
	tabs []tableRange
	// gateWarmup is the adaptive greedy gate's warmup length, sized to the
	// database at construction (see gateWarmupFor).
	gateWarmup int64
	// stages[s] counts bounded decisions terminating at stage s; exactValues
	// counts plain Distance computations (always a full solve). Together they
	// form the PruneStats breakdown (see bounded.go).
	stages      [ged.NumStages]paddedCounter
	exactValues paddedCounter
	// greedyTried counts bounded decisions on which the greedy upper-bound
	// stage actually ran (the gate was open and the decision got past the
	// embedding bound). With the greedy stage counter it yields the live
	// success rate the adaptive gate compares against the stage's breakeven.
	greedyTried paddedCounter
}

// paddedCounter is an atomic.Int64 alone on its cache line. One of these
// counters is bumped by every worker on every decision, and packing the
// stage counters (plus exactValues) into adjacent words would make each bump
// invalidate the others' line — measurable false sharing on the query path's
// parallel verify loops.
type paddedCounter struct {
	atomic.Int64
	_ [56]byte
}

func (m *starMetric) sig(id graph.ID) *ged.StarSig {
	m.mu.RLock()
	if int(id) < len(m.sigs) {
		if s := m.sigs[id]; s != nil {
			m.mu.RUnlock()
			return s
		}
	}
	m.mu.RUnlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.sigs) <= int(id) {
		m.sigs = append(m.sigs, nil)
		m.embs = append(m.embs, nil)
	}
	if m.sigs[id] == nil {
		s := ged.NewStarSigWithEmbedding(m.db.Graph(id), m.embs[id])
		m.sigs[id] = s
		m.embs[id] = s.Embedding()
	}
	return m.sigs[id]
}

// pairState snapshots the cached signatures and filter vectors of both IDs
// under a single reader-lock round. Entries not materialized (or not primed)
// yet come back nil; the caller falls through to the locking sig path for
// whichever signatures it still needs. One RLock/RUnlock here replaces up to
// four on the bounded hot path — the RWMutex reader count is a shared atomic,
// so every acquisition is a contended RMW under the parallel verify loops.
func (m *starMetric) pairState(a, b graph.ID) (sa, sb *ged.StarSig, ea, eb *ged.Embedding) {
	m.mu.RLock()
	if int(a) < len(m.sigs) {
		sa, ea = m.sigs[a], m.embs[a]
	}
	if int(b) < len(m.sigs) {
		sb, eb = m.sigs[b], m.embs[b]
	}
	tabs := m.tabs
	m.mu.RUnlock()
	// Vectors primed as encoded tables decode on first use. The decoded value
	// is identical to the one a star signature computes (the encoding
	// round-trips), so threshold decisions and stage attribution do not
	// depend on which source supplied it.
	if len(tabs) > 0 {
		if ea == nil {
			ea = m.tableEmb(tabs, a)
		}
		if eb == nil {
			eb = m.tableEmb(tabs, b)
		}
	}
	return
}

// tableRange is one primed embedding table and the contiguous ID range it
// covers (starting at base).
type tableRange struct {
	base graph.ID
	tab  *ged.Table
}

// tableEmb decodes id's filter vector from its covering table, caching the
// result in embs so the decode happens once. Returns nil when no table
// covers id — without taking the write lock, so IDs outside every table
// (e.g. freshly inserted graphs) cost only the coverage scan.
func (m *starMetric) tableEmb(tabs []tableRange, id graph.ID) *ged.Embedding {
	found := -1
	for i, tr := range tabs {
		if id >= tr.base && int(id-tr.base) < tr.tab.Len() {
			found = i
			break
		}
	}
	if found < 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(id) < len(m.embs) && m.embs[id] != nil {
		return m.embs[id]
	}
	e := tabs[found].tab.At(int(id - tabs[found].base))
	for len(m.embs) <= int(id) {
		m.sigs = append(m.sigs, nil)
		m.embs = append(m.embs, nil)
	}
	m.embs[id] = e
	return e
}

// PrimeEmbeddingTable implements EmbeddingTablePrimer: adopt an encoded
// per-shard embedding table covering the contiguous ID range starting at
// base. Nothing is decoded up front; vectors materialize lazily as pairs
// are tested, which is what keeps opening a mapped index O(1) in the
// database size.
func (m *starMetric) PrimeEmbeddingTable(base graph.ID, tab *ged.Table) {
	if tab == nil || tab.Len() == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tabs = append(m.tabs, tableRange{base: base, tab: tab})
}

// Distance implements Metric.
func (m *starMetric) Distance(a, b graph.ID) float64 {
	if a == b {
		return 0
	}
	m.exactValues.Add(1)
	sa, sb, _, _ := m.pairState(a, b)
	if sa == nil {
		sa = m.sig(a)
	}
	if sb == nil {
		sb = m.sig(b)
	}
	return sa.Distance(sb)
}

// BipartiteGED returns the Riesen–Bunke bipartite GED upper bound as a
// metric-interface distance over db. Note: unlike Star, bipartite GED can
// violate the triangle inequality slightly; it is provided for ablations.
func BipartiteGED(db *graph.Database, c ged.Costs) Metric {
	return Func(func(a, b graph.ID) float64 {
		if a == b {
			return 0
		}
		d, _ := ged.Bipartite(db.Graph(a), db.Graph(b), c)
		return d
	})
}

// Counter wraps a Metric and counts invocations. All algorithms in this
// library are benchmarked by how many expensive distance computations they
// issue; Counter is how that is measured.
type Counter struct {
	inner Metric
	n     atomic.Int64
}

// NewCounter wraps m.
func NewCounter(m Metric) *Counter { return &Counter{inner: m} }

// Distance implements Metric.
func (c *Counter) Distance(a, b graph.ID) float64 {
	c.n.Add(1)
	return c.inner.Distance(a, b)
}

// Count returns the number of Distance calls so far.
func (c *Counter) Count() int64 { return c.n.Load() }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n.Store(0) }

// cacheShards is the number of lock stripes in Cache. 64 keeps the chance
// of two of GOMAXPROCS workers colliding on one stripe low while the
// per-shard overhead (a mutex and a map header) stays negligible.
const cacheShards = 64

// Cache wraps a Metric with a thread-safe memo table keyed on unordered
// pairs. Graph IDs are small ints, so the key packs both into one uint64.
// The table is striped across 64 independently locked shards selected by a
// hash of the pair key, so concurrent build workers and parallel queries
// hammer disjoint mutexes instead of serializing on one. Hit/miss totals
// are tracked atomically so observability layers can report cache
// effectiveness without adding lock traffic to the hot path.
//
// Each entry is a monotonically tightening interval [lo, hi] around the true
// distance, exact iff lo == hi. Distance stores exact values; the bounded
// path behind Decide (see bounded.go) also stores the partial intervals a
// pruned decision proves, so a pruned test still helps later calls at nearby
// thresholds. Merging keeps lo non-decreasing and hi non-increasing, and an
// exact value always wins.
type Cache struct {
	inner        Metric
	hits, misses atomic.Int64
	shards       [cacheShards]cacheShard
}

// interval is one memo entry: lo ≤ d(a,b) ≤ hi, exact iff lo == hi (hi is
// +Inf until some stage proves an upper bound).
type interval struct{ lo, hi float64 }

func (e interval) exact() bool { return e.lo == e.hi }

type cacheShard struct {
	mu   sync.RWMutex
	memo map[uint64]interval // guarded by mu
}

// NewCache wraps m with an unbounded memo table.
func NewCache(m Metric) *Cache {
	c := &Cache{inner: m}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.memo = make(map[uint64]interval)
		sh.mu.Unlock()
	}
	return c
}

func pairKey(a, b graph.ID) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// shard maps a pair key to its stripe. The Fibonacci multiplier mixes both
// IDs into the top bits so consecutive pairs (the common scan pattern)
// spread across stripes instead of clustering.
func (c *Cache) shard(k uint64) *cacheShard {
	return &c.shards[(k*0x9E3779B97F4A7C15)>>(64-6)] // 2^6 == cacheShards
}

// Distance implements Metric with memoization. Identity pairs (a == b) are
// answered without touching the table and count as neither hit nor miss. An
// interval-only entry (from a pruned decision) cannot answer a value lookup, so
// it counts as a miss; the computed exact value then replaces the interval.
//
// Two goroutines that miss on the same key concurrently both compute the
// distance and both count a miss; the metric is deterministic, so the
// duplicated work is wasted but harmless, and keeping misses un-deduplicated
// means Misses() equals the number of inner-metric computations issued —
// the quantity the telemetry layer reports.
func (c *Cache) Distance(a, b graph.ID) float64 {
	if a == b {
		return 0
	}
	k := pairKey(a, b)
	sh := c.shard(k)
	sh.mu.RLock()
	e, ok := sh.memo[k]
	sh.mu.RUnlock()
	if ok && e.exact() {
		c.hits.Add(1)
		return e.lo
	}
	c.misses.Add(1)
	d := c.inner.Distance(a, b)
	sh.store(k, d, d)
	return d
}

// store merges a proven interval into the entry for k: lo only ever rises,
// hi only ever falls, so entries tighten monotonically and an exact value
// (lo == hi) is never loosened. All bounds stored for one pair sandwich the
// same true distance, so the merge keeps lo ≤ hi.
func (sh *cacheShard) store(k uint64, lo, hi float64) {
	sh.mu.Lock()
	if e, ok := sh.memo[k]; ok {
		if e.lo > lo {
			lo = e.lo
		}
		if e.hi < hi {
			hi = e.hi
		}
	}
	sh.memo[k] = interval{lo: lo, hi: hi}
	sh.mu.Unlock()
}

// Hits returns the number of calls answered from the memo table — exact
// entries answering Distance, plus exact or interval entries conclusively
// answering a threshold test.
func (c *Cache) Hits() int64 { return c.hits.Load() }

// Misses returns the number of calls that fell through to the wrapped
// metric — i.e. the expensive inner computations actually issued through
// this cache, whether they produced a value (Distance) or a threshold
// decision (Decide).
func (c *Cache) Misses() int64 { return c.misses.Load() }

// Size returns the number of memoized pairs — exact and interval-only
// entries alike — summed shard by shard. Each shard is read-locked briefly
// and in turn, so a scrape only ever contends with the misses that store
// into the shard it is currently counting; under concurrent load the sum is
// a point-in-time approximation (exact once writes quiesce).
func (c *Cache) Size() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += len(sh.memo)
		sh.mu.RUnlock()
	}
	return n
}

// Clear drops every memoized pair (exact and interval entries) and resets
// the hit/miss totals. Benchmarks call this between measured runs so one
// engine's distance computations cannot subsidize another's.
//
// Each shard's map pointer is swapped under its write lock (O(1); the old
// tables are reclaimed by the GC). A Distance call whose computation is in
// flight when Clear runs stores its result into the fresh table afterwards —
// values are deterministic, so this is correct, but it means Size() may be
// nonzero immediately after Clear returns under concurrent load.
func (c *Cache) Clear() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.memo = make(map[uint64]interval)
		sh.mu.Unlock()
	}
	c.hits.Store(0)
	c.misses.Store(0)
}

// Matrix is a fully precomputed symmetric distance matrix: O(n²) storage and
// O(n²) construction, O(1) queries. It is the paper's best-case (and
// impractical-at-scale) comparison point.
type Matrix struct {
	n int
	d []float64 // row-major upper triangle including diagonal
}

// NewMatrix precomputes all pairwise distances of db under m, using up to
// workers goroutines (≤ 0 means 1).
func NewMatrix(db *graph.Database, m Metric, workers int) *Matrix {
	n := db.Len()
	mat := &Matrix{n: n, d: make([]float64, n*(n-1)/2)}
	if workers <= 0 {
		workers = 1
	}
	var wg sync.WaitGroup
	rows := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rows {
				for j := i + 1; j < n; j++ {
					mat.d[triIndex(i, j, n)] = m.Distance(graph.ID(i), graph.ID(j))
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		rows <- i
	}
	close(rows)
	wg.Wait()
	return mat
}

// triIndex maps a pair (i < j) to its offset in the packed strict upper
// triangle: row i starts at i*(n-1) - i*(i-1)/2 and holds columns i+1..n-1.
func triIndex(i, j, n int) int {
	return i*(n-1) - i*(i-1)/2 + (j - i - 1)
}

// Distance implements Metric.
func (m *Matrix) Distance(a, b graph.ID) float64 {
	if a == b {
		return 0
	}
	i, j := int(a), int(b)
	if i > j {
		i, j = j, i
	}
	return m.d[triIndex(i, j, m.n)]
}

// Len returns the matrix dimension.
func (m *Matrix) Len() int { return m.n }

// Bytes returns the approximate memory footprint of the matrix.
func (m *Matrix) Bytes() int64 { return int64(len(m.d)) * 8 }
