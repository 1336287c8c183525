// Package nbindex implements the NB-Index of §6–7: the paper's index over
// θ-neighborhoods that makes top-k representative queries scale. Its
// vantage orderings (internal/vantage) are a Lipschitz embedding giving the
// candidate neighborhoods N̂_θ(g) ⊇ N_θ(g) of Theorem 5, whose sizes are
// the π̂ upper bounds on representative power (Definition 6) that drive the
// best-first search of Alg. 2. The paper's NB-Tree is one level here: its
// leaves are the relevant graphs, held in one heap per query (DESIGN.md
// explains why the deeper tree went).
//
// # Query processing
//
// A Session holds what no threshold changes: the relevant set L_q of one
// relevance function, over one index or a forest of index parts (the shards
// of internal/shard). Each TopK call runs one vantage-scan pass at the
// queried θ, on the worker pool, then the greedy picks. Relevant
// graph g's candidate list N̂_θ(g) ∩ L_q (Theorem 5) is both its leaf
// bound — π̂ evaluated at θ itself — and the input of its first
// verification, which filters the list against the covered set and
// threshold-tests the rest. For the star metric the pass also drops every
// candidate whose star-histogram sketch (ged.SketchWithin) proves it
// farther than θ, so the bound counts only pairs no cheap test rules out.
// One heap per call holds every relevant graph of every part, keyed by its
// bound, and each pick pops graphs from it best first. Calling TopK again
// with a refined θ reuses the session, which is the interactive zoom
// scenario of Fig. 6(i). The indexed θ grid (§7.1) supplies SweepTheta's
// default thresholds.
//
// # Update rule
//
// Bounds are lazy in the sense of Minoux's accelerated greedy (CELF): once
// a graph is verified its bound falls to the exact marginal gain the
// verification returned, and once it is picked it leaves the heap. By
// submodularity a graph's gain only falls as coverage grows, so an exact
// gain stays a valid bound at every later pick and Alg. 2's pruning stays
// admissible. Graphs never verified keep their pass-list length. The
// paper's batch updates (Theorems 6–8) credit whole clusters and so need a
// deeper tree; with lazy bounds they no longer change the work measurably,
// so they are not implemented.
//
// # One form
//
// An index part keeps each component in the one form the NBIDX004 format
// stores and queries read: the vantage rows and the encoded embedding table
// (ged.Table). A build writes
// them on the heap; an open wraps views of the file; Insert grows either
// kind in place, copying views before the first write; a save writes them
// out as they are.
package nbindex

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"graphrep/internal/core"
	"graphrep/internal/ged"
	"graphrep/internal/graph"
	"graphrep/internal/metric"
	"graphrep/internal/pool"
	"graphrep/internal/vantage"
)

// Options configures index construction.
type Options struct {
	// NumVPs is the number of vantage points (|V|). Choose via
	// stats.MinVPsForFPR or default to a small constant.
	NumVPs int
	// ThetaGrid lists the indexed thresholds, ascending (§7.1): the default
	// points of SweepTheta.
	ThetaGrid []float64
	// Workers bounds the goroutines used for construction and for each
	// query's vantage pass (≤ 0 means GOMAXPROCS). The index and every
	// answer are identical for any value; only wall time changes.
	Workers int
}

// DefaultOptions returns a memory-resident configuration.
func DefaultOptions(grid []float64) Options {
	return Options{NumVPs: 8, ThetaGrid: grid}
}

// Index is an NB-Index over a database — either the whole of it
// (BuildContext, base 0) or one shard's contiguous ID range (BuildPartContext;
// internal/shard coordinates several such parts). Build once per database;
// relevance functions and θ are supplied at query time; Insert is the one
// mutation. It holds only what queries, Insert and the load checks read:
// the vantage ordering and the encoded embedding table, plus the sketch
// rows derived from the table. A built index and one opened from an
// NBIDX004 file hold these same structures, on the heap or as views of the
// file.
type Index struct {
	db   *graph.Database
	m    metric.Metric
	vo   *vantage.Ordering
	grid []float64
	// base is the first graph ID covered; 0 for a full-database index.
	base graph.ID
	// embTab holds the filter embedding of graph base+i as record i: the
	// vector whose L1-style lower bound opens the bounded distance cascade,
	// decoded on demand by the metric. Embeddings are a pure function of the
	// graphs — independent of the metric and of whether the bounded kernel
	// is enabled — so index bytes stay identical either way.
	embTab *ged.Table
	// sketch holds one star-histogram sketch row per covered graph,
	// ged.SketchWidth cells each (graph base+i at sketch[i*ged.SketchWidth:]):
	// 50 bytes per graph, derived from embTab and never persisted. A build
	// derives the rows at once; a view-backed part derives them in the
	// deferred validation pass, which reads every record anyway, so every row
	// exists once EnsureValid passed.
	sketch []uint16
	// sketchFilter turns on the sketch test in every query's vantage pass.
	// The sketch bounds the star distance only, so the engine turns it on
	// for the star metric alone (UseSketchFilter).
	sketchFilter bool
	// deferredCheck is the content validation a deferred construction
	// (PartFromViewsDeferred) postponed; EnsureValid runs it exactly once
	// before the first navigation and caches the verdict in checkErr. Nil
	// for eagerly-validated indexes.
	deferredCheck func() error
	checkOnce     sync.Once
	checkErr      error
	// workers bounds the goroutines of each query's vantage pass; ≤ 0 means
	// GOMAXPROCS.
	workers int
	// timing records the wall time of each construction phase.
	timing BuildTiming
	// tel, when set, aggregates QueryStats across every session's queries.
	tel atomic.Pointer[Telemetry]
}

// BuildTiming reports the wall time of each construction phase, for the
// build-phase telemetry gauges (the offline cost of Fig. 6(k), split by
// stage).
type BuildTiming struct {
	// VPSelect covers vantage point selection (sequential; rng-driven).
	VPSelect time.Duration
	// Vantage covers the |V|×n vantage distance-matrix fill and sorted view.
	Vantage time.Duration
	// Total is the whole Build call.
	Total time.Duration
}

// Build constructs the NB-Index with no cancellation. See BuildContext.
func Build(db *graph.Database, m metric.Metric, opt Options, rng *rand.Rand) (*Index, error) {
	return BuildContext(context.Background(), db, m, opt, rng)
}

// BuildContext constructs the NB-Index: vantage point selection, vantage
// orderings and the embedding table. Cancellation is checked at
// every phase boundary and per work batch inside the parallel fills; a
// cancelled build returns ctx.Err() and no index. The result is identical
// for any Workers value.
func BuildContext(ctx context.Context, db *graph.Database, m metric.Metric, opt Options, rng *rand.Rand) (*Index, error) {
	if len(opt.ThetaGrid) == 0 {
		return nil, fmt.Errorf("nbindex: empty theta grid")
	}
	if !sort.Float64sAreSorted(opt.ThetaGrid) {
		return nil, fmt.Errorf("nbindex: theta grid not ascending")
	}
	if opt.NumVPs <= 0 {
		return nil, fmt.Errorf("nbindex: NumVPs = %d", opt.NumVPs)
	}
	if db.Len() == 0 {
		return nil, fmt.Errorf("nbindex: empty database")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now() //lint:allow detrand build-phase wall-time gauge; timing only, never influences index content
	numVPs := opt.NumVPs
	if numVPs > db.Len() {
		numVPs = db.Len()
	}
	vps, err := vantage.SelectVPs(db, m, numVPs, vantage.SelectRandom, rng)
	if err != nil {
		return nil, err
	}
	tVPs := time.Now() //lint:allow detrand build-phase wall-time gauge; timing only, never influences index content
	ix, err := BuildPartContext(ctx, db, m, vps, opt.ThetaGrid, 0, db.Len(), opt.Workers)
	if err != nil {
		return nil, err
	}
	ix.timing.VPSelect = tVPs.Sub(start)
	ix.timing.Total += ix.timing.VPSelect
	return ix, nil
}

// BuildPartContext constructs an NB-Index over the contiguous ID range
// [base, base+count) of db with an externally chosen vantage point set and θ
// grid. This is the shard build path: every shard shares one global VP set
// (so embedding coordinates are comparable across shards) and one global
// grid, while owning its own vantage rows and embedding records. An empty
// grid leaves the part without one, for a caller that derives the grid from
// the built rows and hands it over with SetGrid. BuildContext is the base=0,
// count=n special case with the VPs selected internally. The part draws no
// randomness.
func BuildPartContext(ctx context.Context, db *graph.Database, m metric.Metric, vps []graph.ID, grid []float64, base graph.ID, count, workers int) (*Index, error) {
	if !sort.Float64sAreSorted(grid) {
		return nil, fmt.Errorf("nbindex: theta grid not ascending")
	}
	start := time.Now() //lint:allow detrand build-phase wall-time gauge; timing only, never influences index content
	vo, err := vantage.BuildRangeContext(ctx, db, m, vps, base, count, workers)
	if err != nil {
		return nil, err
	}
	tVO := time.Now() //lint:allow detrand build-phase wall-time gauge; timing only, never influences index content
	ix := &Index{
		db:      db,
		m:       m,
		vo:      vo,
		grid:    append([]float64(nil), grid...),
		base:    base,
		workers: workers,
		timing:  BuildTiming{Vantage: tVO.Sub(start)},
	}
	embs := make([]*ged.Embedding, count)
	// Each embedding is a pure function of its graph, so the fill
	// parallelizes freely without affecting the table.
	if err := pool.Ranges(ctx, count, workers, 16, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			embs[i] = ged.NewEmbedding(db.Graph(base + graph.ID(i)))
		}
	}); err != nil {
		return nil, err
	}
	if ix.embTab, err = ged.NewTableFromEmbeddings(embs); err != nil {
		return nil, err
	}
	ix.extendSketch()
	ix.timing.Total = time.Since(start)
	return ix, nil
}

// extendSketch appends the sketch rows of the table records that have none
// yet — every record after a build or a load's validation, the new one after
// an Insert — read from the encoded records.
func (ix *Index) extendSketch() {
	have := len(ix.sketch) / ged.SketchWidth
	ix.sketch = slices.Grow(ix.sketch, (ix.embTab.Len()-have)*ged.SketchWidth)
	for i := have; i < ix.embTab.Len(); i++ {
		ix.sketch = ix.embTab.AppendSketch(i, ix.sketch)
	}
}

// UseSketchFilter turns on the sketch test in every later query's vantage
// pass, dropping candidates whose star-histogram sketch already proves them
// farther than θ. The sketch is a lower bound on the star distance only:
// call this only when the index's metric is the star metric. Not safe
// concurrently with queries.
func (ix *Index) UseSketchFilter() { ix.sketchFilter = true }

// PartFromViewsDeferred assembles an index part from persisted components —
// typically zero-copy views over one shard's v4 sections: the vantage
// ordering (vantage.FromViewsDeferred) and the encoded embedding table
// (ged.NewTableDeferred). The shape invariants (grid ascending, range within
// the database, array lengths) are checked now, in O(grid). The content
// scans run once on first use, via EnsureValid: the components' own
// Validates and the embedding table matching the database graph for graph
// (per-record star count); that pass also derives the part's sketch rows
// from the table. Sessions and Insert call EnsureValid
// themselves, so a part whose content never validated cannot be navigated;
// this is what keeps a mapped open's cost independent of index size. The
// components are retained, not copied; grid is copied.
func PartFromViewsDeferred(db *graph.Database, m metric.Metric, vo *vantage.Ordering, grid []float64, embTab *ged.Table, workers int) (*Index, error) {
	if len(grid) == 0 {
		return nil, fmt.Errorf("nbindex: empty theta grid")
	}
	if !sort.Float64sAreSorted(grid) {
		return nil, fmt.Errorf("nbindex: theta grid not ascending")
	}
	base, count := vo.Base(), vo.Len()
	if int(base)+count > db.Len() {
		return nil, fmt.Errorf("nbindex: part covers [%d, %d), database has %d graphs", base, int(base)+count, db.Len())
	}
	if embTab == nil {
		return nil, fmt.Errorf("nbindex: part has no embedding table")
	}
	if embTab.Len() != count {
		return nil, fmt.Errorf("nbindex: embedding table of %d records, ordering covers %d graphs", embTab.Len(), count)
	}
	ix := &Index{
		db:      db,
		m:       m,
		vo:      vo,
		grid:    append([]float64(nil), grid...),
		base:    base,
		embTab:  embTab,
		workers: workers,
	}
	ix.deferredCheck = ix.validateViews
	return ix, nil
}

// validateViews is the deferred content scan of a view-backed part, as
// PartFromViewsDeferred documents it. Runs once, via EnsureValid.
func (ix *Index) validateViews() error {
	if err := ix.vo.Validate(); err != nil {
		return err
	}
	base, count := ix.base, ix.vo.Len()
	if err := ix.embTab.Validate(); err != nil {
		return err
	}
	for i := 0; i < count; i++ {
		if order := ix.db.Graph(base + graph.ID(i)).Order(); ix.embTab.Stars(i) != order {
			return fmt.Errorf("nbindex: embedding %d has %d stars, graph %d has %d vertices",
				i, ix.embTab.Stars(i), int(base)+i, order)
		}
	}
	ix.extendSketch()
	return nil
}

// EnsureValid runs a deferred content validation (PartFromViewsDeferred)
// exactly once and returns its verdict — nil for indexes built in memory.
// Safe for concurrent callers; sessions and Insert call it before the first
// navigation, so corrupt content surfaces as an error there rather than as a
// fault mid-query.
func (ix *Index) EnsureValid() error {
	ix.checkOnce.Do(func() {
		if ix.deferredCheck != nil {
			ix.checkErr = ix.deferredCheck()
			ix.deferredCheck = nil
		}
	})
	return ix.checkErr
}

// Timing returns the wall time each construction phase took. Zero for
// indexes loaded with Read (no construction happened).
func (ix *Index) Timing() BuildTiming { return ix.timing }

// SetWorkers bounds the goroutines later queries' vantage passes use (≤ 0
// means GOMAXPROCS). Useful after Read, which has no Options.
func (ix *Index) SetWorkers(w int) { ix.workers = w }

// Insert extends the index with a graph already appended to the database
// (its ID must be the database's last, and this index must be the one whose
// range ends there — the last shard, in sharded deployments). It appends a
// vantage row, costing the |V| vantage distances and no other, a table
// record holding the graph's embedding, and its sketch row. View-backed
// parts grow copy-on-write: the ordering's and the table's appends
// reallocate views (which have no spare capacity), so a mapping is never
// written. Sessions created before an Insert do not see the new graph;
// create a fresh Session afterwards. Not safe concurrently with queries.
func (ix *Index) Insert(id graph.ID) error {
	if err := ix.EnsureValid(); err != nil {
		return err
	}
	if int(id) != ix.db.Len()-1 {
		return fmt.Errorf("nbindex: inserting id %d, want the database's last id %d", id, ix.db.Len()-1)
	}
	if int(id-ix.base) != ix.vo.Len() {
		return fmt.Errorf("nbindex: inserting id %d, index covers [%d, %d)", id, ix.base, int(ix.base)+ix.vo.Len())
	}
	tab, err := ix.embTab.Append(ged.NewEmbedding(ix.db.Graph(id)))
	if err != nil {
		return err
	}
	if err := ix.vo.Insert(id, ix.m); err != nil {
		return err
	}
	ix.embTab = tab
	ix.extendSketch()
	return nil
}

// VO exposes the vantage orderings (read-only).
func (ix *Index) VO() *vantage.Ordering { return ix.vo }

// Grid returns the indexed thresholds.
func (ix *Index) Grid() []float64 { return ix.grid }

// SetGrid replaces the indexed thresholds, SweepTheta's default points; the
// sharded build uses it to hand every part the grid it derived from their
// vantage rows. The grid must be non-empty and ascending; it is retained,
// not copied, and must not be modified afterwards. Not safe concurrently
// with queries.
func (ix *Index) SetGrid(grid []float64) { ix.grid = grid }

// Base returns the first graph ID the index covers (0 for a full index).
func (ix *Index) Base() graph.ID { return ix.base }

// Count returns the number of graphs the index covers.
func (ix *Index) Count() int { return ix.vo.Len() }

// EmbeddingTable returns the encoded embedding table, record i holding the
// filter embedding of graph Base()+i (read-only). The engine primes the
// metric with it.
func (ix *Index) EmbeddingTable() *ged.Table { return ix.embTab }

// Bytes approximates the index memory footprint (Fig. 6(l)): the vantage
// rows and the encoded embedding table — the same figure for a built index
// and for the index reopened from its file. The derived sketch rows, 50
// bytes per graph, are not counted.
func (ix *Index) Bytes() int64 {
	return ix.vo.Bytes() + ix.embTab.Bytes()
}

// Session is the initialization phase for one relevance function over a
// forest of index parts: the relevant set L_q, which no threshold changes. A
// Session answers any number of TopK calls at varying θ (interactive
// refinement) without repeating it; whatever a call derives from θ —
// candidate lists, bounds, coverage — lives in that call's locals.
//
// After initialization a Session is read-only apart from the LastStats
// bookkeeping, which is mutex-guarded, so TopK and SweepTheta are safe to
// call from multiple goroutines concurrently (each call computes an
// independent answer). The index must not be mutated (Insert) while queries
// are in flight.
type Session struct {
	parts []*Index
	// rel lists the relevant graphs in ascending ID order: 4 bytes each.
	rel []graph.ID
	// statsMu guards lastStats; every other Session field is immutable after
	// initialization, which is what makes concurrent TopK calls safe.
	statsMu   sync.Mutex
	lastStats QueryStats // guarded by statsMu
}

// QueryStats describes the work one TopK call performed.
type QueryStats struct {
	// PQPops counts the search's heap pops, summed over the call's greedy
	// picks. Each pop verifies one graph, so it equals VerifiedLeaves.
	PQPops int
	// VerifiedLeaves counts candidate verifications, including the memoized
	// re-verifications of a graph already verified earlier in the call.
	VerifiedLeaves int
	// CandidateScans counts the vantage candidates handed to first
	// verifications: each verified graph's pass list — already filtered by
	// the sketch test where the pass runs it — minus the graphs already
	// covered when it is first verified. The call's vantage pass builds the
	// list of every relevant graph, verified or not (PassPairs counts its
	// work), and a memoized re-verification scans nothing.
	CandidateScans int
	// PassPairs counts the pairs the call's vantage pass tested: the
	// unordered pairs of relevant graphs with either one inside the other's
	// first-space window, each tested once past that window. Windows depend
	// only on the graphs' first coordinates, so the count is the same for
	// any shard count and worker count. No decision reads it.
	PassPairs int
	// ExactDistances counts threshold tests resolved by a full distance
	// computation (or an exact cached value); PrunedDistances counts tests
	// the bounded kernel resolved from a cheaper bound — a cascade stage or
	// a memoized interval — without completing the exact solve. Their sum is
	// the number of candidate threshold tests actually issued: a graph's
	// candidates are tested at its first verification in the call only.
	ExactDistances  int
	PrunedDistances int
}

// NewSession runs the initialization phase for relevance function q: the
// relevance filter over the database. Any TopK threshold is supported.
func (ix *Index) NewSession(q core.Relevance) *Session {
	s, _ := ix.NewSessionContext(context.Background(), q)
	return s
}

// NewSessionContext is NewSession with cancellation: a context cancelled by
// the time the relevance filter finishes returns ctx.Err() with no session.
// The index must cover the whole database.
func (ix *Index) NewSessionContext(ctx context.Context, q core.Relevance) (*Session, error) {
	return NewForestSession(ctx, []*Index{ix}, q)
}

// NewForestSession runs the initialization phase for relevance function q
// over a forest of parts: indexes over one database, sharing its metric, VP
// set, θ grid and workers, whose ranges tile the database in ascending
// order (internal/shard's parts). Every part's deferred validation runs
// first. A context cancelled by the time the relevance filter finishes
// returns ctx.Err() with no session.
func NewForestSession(ctx context.Context, parts []*Index, q core.Relevance) (*Session, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("nbindex: a session needs at least one part")
	}
	next := graph.ID(0)
	for _, part := range parts {
		if err := part.EnsureValid(); err != nil {
			return nil, err
		}
		if part.base != next {
			return nil, fmt.Errorf("nbindex: part covers [%d, %d), want a part starting at %d",
				part.base, int(part.base)+part.vo.Len(), next)
		}
		next += graph.ID(part.vo.Len())
	}
	db := parts[0].db
	if int(next) != db.Len() {
		return nil, fmt.Errorf("nbindex: sessions require parts covering the database, these cover [0, %d) of %d graphs", next, db.Len())
	}
	rel := core.Relevant(db, q)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &Session{parts: parts, rel: rel}, nil
}

// RelevantCount returns |L_q| for the session.
func (s *Session) RelevantCount() int { return len(s.rel) }

// LastStats returns statistics from the most recently completed TopK call.
// With concurrent TopK calls in flight, "most recent" means whichever call
// finished last.
func (s *Session) LastStats() QueryStats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.lastStats
}

// TopK runs the search-and-update phase (Alg. 2 driven greedy) at threshold
// theta with budget k. The answer matches the baseline greedy exactly
// (maximum marginal gain, ties toward the lower graph ID; picks stop when no
// candidate improves coverage).
func (s *Session) TopK(theta float64, k int) (*core.Result, error) {
	return s.TopKContext(context.Background(), theta, k)
}

// TopKContext is TopK with cancellation: the context is checked on entry,
// inside the vantage pass, at every greedy pick and every 256 heap pops, so
// a cancelled or expired context makes the call return ctx.Err() promptly
// without publishing stats for the abandoned query.
func (s *Session) TopKContext(ctx context.Context, theta float64, k int) (*core.Result, error) {
	// Work stats accumulate in a local so concurrent TopK calls never share
	// mutable state; the final store publishes them for LastStats and folds
	// them into the index's telemetry aggregates.
	var st QueryStats
	res, err := search(ctx, s.parts, s.rel, theta, k, &st)
	if err != nil {
		return nil, err
	}
	s.statsMu.Lock()
	s.lastStats = st
	s.statsMu.Unlock()
	s.parts[0].tel.Load().Observe(st)
	return res, nil
}

// ChooseGrid picks gridSize thresholds for an explicitly chosen grid from
// samplePairs random pairs, placed by QuantileGrid. The engine's default
// grid comes from its vantage rows instead (internal/shard); this sampled
// grid serves callers that index a grid of their own, such as the
// experiments. The pairs are drawn from rng sequentially and only the
// distance evaluations fan out, each writing its pre-assigned slot, so the
// grid is deterministic in (db, samplePairs, rng seed) alone.
func ChooseGrid(db *graph.Database, m metric.Metric, gridSize, samplePairs int, rng *rand.Rand) []float64 {
	if gridSize <= 0 || db.Len() < 2 {
		return nil
	}
	type pair struct{ a, b graph.ID }
	pairs := make([]pair, 0, samplePairs)
	for i := 0; i < samplePairs; i++ {
		a := graph.ID(rng.Intn(db.Len()))
		b := graph.ID(rng.Intn(db.Len()))
		if a == b {
			continue
		}
		pairs = append(pairs, pair{a, b})
	}
	ds := make([]float64, len(pairs))
	// A background context never cancels, so the fill cannot fail.
	_ = pool.Ranges(context.Background(), len(pairs), 0, 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ds[i] = m.Distance(pairs[i].a, pairs[i].b)
		}
	})
	return QuantileGrid(ds, gridSize)
}

// QuantileGrid places gridSize thresholds at the i/(gridSize+1) quantiles
// of the sampled distances ds, i = 1…gridSize, so that steep regions of the
// cumulative distribution get proportionally more thresholds (§7.1,
// scheme 2). A threshold is kept only if it is strictly above the last one
// kept, and the sample's maximum is appended if it is larger still, so every
// realistic θ is covered. ds is sorted in place. An empty sample or a
// gridSize ≤ 0 gives nil.
func QuantileGrid(ds []float64, gridSize int) []float64 {
	if gridSize <= 0 || len(ds) == 0 {
		return nil
	}
	sort.Float64s(ds)
	grid := make([]float64, 0, gridSize)
	for i := 1; i <= gridSize; i++ {
		q := float64(i) / float64(gridSize+1)
		v := ds[int(q*float64(len(ds)-1))]
		if len(grid) == 0 || v > grid[len(grid)-1] {
			grid = append(grid, v)
		}
	}
	if max := ds[len(ds)-1]; grid[len(grid)-1] < max {
		grid = append(grid, max)
	}
	return grid
}
