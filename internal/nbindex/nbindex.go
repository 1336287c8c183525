// Package nbindex implements the NB-Index of §6–7: the paper's index over
// θ-neighborhoods that makes top-k representative queries scale. It unifies
//
//   - vantage orderings (internal/vantage): a Lipschitz embedding giving the
//     candidate neighborhoods N̂_θ(g) ⊇ N_θ(g) of Theorem 5, and
//   - the NB-Tree (internal/nbtree): a hierarchical clustering whose nodes
//     carry π̂ ceilings — upper bounds on representative power (Definition
//     6) — enabling the best-first search of Alg. 2.
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
// Leaf bounds propagate up each tree as subtree maxima (Eq. 14), and one
// best-first search pops the nodes of every part's tree from one heap.
// Calling TopK again with a refined θ reuses the session, which is the
// interactive zoom scenario of Fig. 6(i). The indexed θ grid (§7.1)
// supplies SweepTheta's default thresholds.
//
// # Update rule
//
// Bounds are lazy in the sense of Minoux's accelerated greedy (CELF): once
// a leaf is verified its bound falls to the exact marginal gain the
// verification returned, and once it is picked to −1; the new value is
// re-propagated up the tree. By submodularity a graph's gain only falls as
// coverage grows, so an exact gain stays a valid bound at every later pick
// and Alg. 2's pruning stays admissible. Leaves never verified keep their
// pass-list length. The paper's batch updates (Theorems 6–8) are not
// implemented: with lazy bounds they no longer change the work measurably.
package nbindex

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"graphrep/internal/core"
	"graphrep/internal/ged"
	"graphrep/internal/graph"
	"graphrep/internal/metric"
	"graphrep/internal/nbtree"
	"graphrep/internal/pool"
	"graphrep/internal/vantage"
)

// Options configures index construction.
type Options struct {
	// NumVPs is the number of vantage points (|V|). Choose via
	// stats.MinVPsForFPR or default to a small constant.
	NumVPs int
	// VPPolicy selects the vantage point policy (default SelectRandom).
	VPPolicy vantage.SelectionPolicy
	// Branching is the NB-Tree fan-out b (≥ 2).
	Branching int
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
	return Options{NumVPs: 8, Branching: 4, ThetaGrid: grid}
}

// Index is an immutable NB-Index over a database — either the whole of it
// (BuildContext, base 0) or one shard's contiguous ID range (BuildPartContext;
// internal/shard coordinates several such parts). Build once per database;
// relevance functions and θ are supplied at query time.
type Index struct {
	db *graph.Database
	m  metric.Metric
	vo *vantage.Ordering
	// flat is the NB-Tree in array form — the representation every query
	// navigates, whether the index was built in memory or opened over a
	// mapping. Always set.
	flat *nbtree.Flat
	// tree is the pointer form, present when the index was built (or thawed
	// for mutation); nil for view-backed indexes until something needs it.
	// Tree() materializes it on demand from flat.
	tree *nbtree.Tree
	grid []float64
	// base is the first graph ID covered; 0 for a full-database index.
	base graph.ID
	// leafOf maps a covered graph ID (offset by base) to its leaf node index
	// in the flat tree. May alias a mapped section; thaw copies it before
	// any mutation; validated by EnsureValid (deferred range checks for
	// view-backed indexes).
	leafOf []int32
	// embs[i] is the filter embedding of graph base+i: the precomputed
	// vector whose L1-style lower bound opens the bounded distance cascade.
	// Embeddings are a pure function of the graphs — independent of the
	// metric and of whether the bounded kernel is enabled — so index bytes
	// stay identical either way. Built indexes compute them; view-backed
	// indexes carry embTab instead and leave embs nil until thawed.
	embs []*ged.Embedding
	// embTab is the encoded embedding table of a view-backed index (nil for
	// built indexes): the same vectors as embs, decoded on demand by the
	// metric instead of eagerly at load.
	embTab *ged.Table
	// sketch holds one star-histogram sketch row per covered graph,
	// ged.SketchWidth cells each (graph base+i at sketch[i*ged.SketchWidth:]):
	// 50 bytes per graph, derived from the embeddings and never persisted.
	// Built indexes compute the rows with their embeddings; view-backed
	// indexes derive them from embTab in the deferred validation pass, which
	// reads every record anyway, so every row exists once EnsureValid passed.
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
	// Vantage covers the |V|×n vantage distance-matrix fill and sorted views.
	Vantage time.Duration
	// Tree covers the NB-Tree clustering.
	Tree time.Duration
	// Total is the whole Build call.
	Total time.Duration
}

// Build constructs the NB-Index with no cancellation. See BuildContext.
func Build(db *graph.Database, m metric.Metric, opt Options, rng *rand.Rand) (*Index, error) {
	return BuildContext(context.Background(), db, m, opt, rng)
}

// BuildContext constructs the NB-Index: vantage point selection, vantage
// orderings, and the VP-accelerated NB-Tree. Cancellation is checked at
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
	vps, err := vantage.SelectVPs(db, m, numVPs, opt.VPPolicy, rng)
	if err != nil {
		return nil, err
	}
	tVPs := time.Now() //lint:allow detrand build-phase wall-time gauge; timing only, never influences index content
	ix, err := BuildPartContext(ctx, db, m, vps, opt.ThetaGrid, 0, db.Len(), opt.Branching, opt.Workers, rng)
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
// grid, while owning its own vantage rows and NB-Tree. BuildContext is the
// base=0, count=n special case with the VPs selected internally. rng drives
// only the NB-Tree pivot draws; pass a per-shard seeded source for
// reproducible shard builds.
func BuildPartContext(ctx context.Context, db *graph.Database, m metric.Metric, vps []graph.ID, grid []float64, base graph.ID, count, branching, workers int, rng *rand.Rand) (*Index, error) {
	if len(grid) == 0 {
		return nil, fmt.Errorf("nbindex: empty theta grid")
	}
	if !sort.Float64sAreSorted(grid) {
		return nil, fmt.Errorf("nbindex: theta grid not ascending")
	}
	start := time.Now() //lint:allow detrand build-phase wall-time gauge; timing only, never influences index content
	vo, err := vantage.BuildRangeContext(ctx, db, m, vps, base, count, workers)
	if err != nil {
		return nil, err
	}
	tVO := time.Now() //lint:allow detrand build-phase wall-time gauge; timing only, never influences index content
	if branching < 2 {
		branching = 4
	}
	ids := make([]graph.ID, count)
	for i := range ids {
		ids[i] = base + graph.ID(i)
	}
	tree, err := nbtree.BuildSubsetContext(ctx, db, m, ids,
		nbtree.Options{Branching: branching, VO: vo, Workers: workers}, rng)
	if err != nil {
		return nil, err
	}
	done := time.Now() //lint:allow detrand build-phase wall-time gauge; timing only, never influences index content
	ix := &Index{
		db:      db,
		m:       m,
		vo:      vo,
		flat:    tree.Flatten(),
		tree:    tree,
		grid:    append([]float64(nil), grid...),
		base:    base,
		workers: workers,
		timing: BuildTiming{
			Vantage: tVO.Sub(start),
			Tree:    done.Sub(tVO),
			Total:   done.Sub(start),
		},
		leafOf: func() []int32 {
			l := make([]int32, count)
			for _, n := range tree.Nodes() {
				if n.Leaf {
					l[n.Centroid-base] = int32(n.Idx)
				}
			}
			return l
		}(),
	}
	if err := ix.computeEmbeddings(ctx, workers); err != nil {
		return nil, err
	}
	return ix, nil
}

// computeEmbeddings fills embs from the database graphs at build time. Each
// row is a pure function of its graph, so the fill parallelizes freely
// without affecting the result.
func (ix *Index) computeEmbeddings(ctx context.Context, workers int) error {
	embs := make([]*ged.Embedding, ix.vo.Len())
	sketch := make([]uint16, len(embs)*ged.SketchWidth)
	if err := pool.Ranges(ctx, len(embs), workers, 16, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			embs[i] = ged.NewEmbedding(ix.db.Graph(ix.base + graph.ID(i)))
			// Appending to the empty slice capped at row i fills row i in place.
			embs[i].AppendSketch(sketch[i*ged.SketchWidth : i*ged.SketchWidth : (i+1)*ged.SketchWidth])
		}
	}); err != nil {
		return err
	}
	ix.embs, ix.sketch = embs, sketch
	return nil
}

// UseSketchFilter turns on the sketch test in every later query's vantage
// pass, dropping candidates whose star-histogram sketch already proves them
// farther than θ. The sketch is a lower bound on the star distance only:
// call this only when the index's metric is the star metric. Not safe
// concurrently with queries.
func (ix *Index) UseSketchFilter() { ix.sketchFilter = true }

// Embeddings returns the per-graph filter embeddings, indexed by covered
// graph ID minus Base(). The engine hands them to the metric
// (metric.EmbeddingPrimer) so threshold tests on far pairs resolve from the
// cached vectors without materializing star signatures. Nil for view-backed
// indexes, which carry EmbeddingTable instead.
func (ix *Index) Embeddings() []*ged.Embedding { return ix.embs }

// PartFromViews assembles an index part from persisted components — typically
// zero-copy views over one shard's v4 sections: the vantage ordering (see
// vantage.FromViews), the flat NB-Tree (see nbtree.NewFlat), the leaf map,
// and the encoded embedding table. Beyond what the component constructors
// already guarantee, it validates the cross-component invariants queries
// lean on: the tree covers exactly the ordering's range (root size, every
// centroid in range), the leaf map is a bijection between covered graphs and
// leaves, and the embedding table matches the database graph for graph
// (record count and per-record star count). The validation also derives the
// part's sketch rows from the embedding table. The components are retained,
// not copied; grid is copied. It is PartFromViewsDeferred followed
// immediately by EnsureValid.
func PartFromViews(db *graph.Database, m metric.Metric, vo *vantage.Ordering, flat *nbtree.Flat, grid []float64, leafOf []int32, embTab *ged.Table, workers int) (*Index, error) {
	ix, err := PartFromViewsDeferred(db, m, vo, flat, grid, leafOf, embTab, workers)
	if err != nil {
		return nil, err
	}
	if err := ix.EnsureValid(); err != nil {
		return nil, err
	}
	return ix, nil
}

// PartFromViewsDeferred is PartFromViews minus the O(count) content scans:
// the shape invariants (grid ascending, range within the database, root
// size, claimed leaf count, array lengths) are checked now, in O(grid), and
// the content scans — the components' own deferred Validates plus the
// cross-component loops — run once on first use, via EnsureValid. Sessions
// and Insert call EnsureValid themselves, so a part whose content never
// validated cannot be navigated; this is what keeps a mapped open's cost
// independent of index size.
func PartFromViewsDeferred(db *graph.Database, m metric.Metric, vo *vantage.Ordering, flat *nbtree.Flat, grid []float64, leafOf []int32, embTab *ged.Table, workers int) (*Index, error) {
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
	if rootSize := int(flat.Sizes[0]); rootSize != count {
		return nil, fmt.Errorf("nbindex: tree covers %d graphs, ordering covers %d", rootSize, count)
	}
	if flat.Stats().Leaves != count {
		return nil, fmt.Errorf("nbindex: tree has %d leaves, ordering covers %d graphs", flat.Stats().Leaves, count)
	}
	if len(leafOf) != count {
		return nil, fmt.Errorf("nbindex: leaf map of %d entries, ordering covers %d graphs", len(leafOf), count)
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
		flat:    flat,
		grid:    append([]float64(nil), grid...),
		base:    base,
		leafOf:  leafOf,
		embTab:  embTab,
		workers: workers,
	}
	ix.deferredCheck = ix.validateViews
	return ix, nil
}

// validateViews is the deferred content scan of a view-backed part: the
// component Validates plus the cross-component loops PartFromViews
// documents. Runs once, via EnsureValid.
func (ix *Index) validateViews() error {
	if err := ix.vo.Validate(); err != nil {
		return err
	}
	if err := ix.flat.Validate(); err != nil {
		return err
	}
	if err := ix.embTab.Validate(); err != nil {
		return err
	}
	base, count, flat := ix.base, ix.vo.Len(), ix.flat
	for i, c := range flat.Centroids {
		if c < base || int(c-base) >= count {
			return fmt.Errorf("nbindex: node %d centroid %d outside covered range [%d, %d)", i, c, base, int(base)+count)
		}
	}
	for i, l := range ix.leafOf {
		if l < 0 || int(l) >= flat.Len() {
			return fmt.Errorf("nbindex: leaf map entry %d is node %d, tree has %d nodes", i, l, flat.Len())
		}
		if !flat.Leaf(l) {
			return fmt.Errorf("nbindex: leaf map entry %d points at non-leaf node %d", i, l)
		}
		if flat.Centroids[l] != base+graph.ID(i) {
			return fmt.Errorf("nbindex: leaf map entry %d points at node %d holding graph %d", i, l, flat.Centroids[l])
		}
	}
	sketch := make([]uint16, 0, count*ged.SketchWidth)
	for i := 0; i < count; i++ {
		if order := ix.db.Graph(base + graph.ID(i)).Order(); ix.embTab.Stars(i) != order {
			return fmt.Errorf("nbindex: embedding %d has %d stars, graph %d has %d vertices",
				i, ix.embTab.Stars(i), int(base)+i, order)
		}
		sketch = ix.embTab.AppendSketch(i, sketch)
	}
	ix.sketch = sketch
	return nil
}

// EnsureValid runs a deferred content validation (PartFromViewsDeferred)
// exactly once and returns its verdict — nil for indexes built in memory or
// loaded through eagerly-validating paths. Safe for concurrent callers;
// sessions and Insert call it before the first navigation, so corrupt
// content surfaces as an error there rather than as a fault mid-query.
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
// range ends there — the last shard, in sharded deployments). Costs |V|
// vantage distances plus a tree descent. Sessions created before an Insert
// do not see the new graph; create a fresh Session afterwards. Not safe
// concurrently with queries.
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
	ix.thaw()
	if err := ix.vo.Insert(id, ix.m); err != nil {
		return err
	}
	ix.tree.Insert(id, ix.m)
	emb := ged.NewEmbedding(ix.db.Graph(id))
	ix.embs = append(ix.embs, emb)
	ix.sketch = emb.AppendSketch(ix.sketch)
	// Rebuild the leaf map: inserting into a singleton tree restructures
	// node indexes, so a full O(nodes) rebuild is the safe (and still
	// cheap) choice. The flat form queries navigate is re-derived last, so
	// it always reflects the mutated tree.
	ix.leafOf = append(ix.leafOf, 0)
	for _, n := range ix.tree.Nodes() {
		if n.Leaf {
			ix.leafOf[n.Centroid-ix.base] = int32(n.Idx)
		}
	}
	ix.flat = ix.tree.Flatten()
	return nil
}

// thaw moves a view-backed index fully onto the heap so it can be mutated:
// the pointer tree is rebuilt from the flat form, the leaf map is copied out
// of the mapping (its elements are overwritten in place on insert), and the
// encoded embedding table is decoded into the eager slice. Built indexes are
// already heap-resident, so thaw is a no-op for them. Vantage rows need no
// thaw: views are handed out with cap == len, so the ordering's sorted
// insertions reallocate on first append.
func (ix *Index) thaw() {
	if ix.tree == nil {
		ix.tree = ix.flat.Rebuild()
	}
	if ix.embTab != nil {
		if ix.embs == nil {
			embs := make([]*ged.Embedding, ix.embTab.Len())
			for i := range embs {
				embs[i] = ix.embTab.At(i)
			}
			ix.embs = embs
		}
		ix.embTab = nil
	}
	ix.leafOf = append([]int32(nil), ix.leafOf...)
}

// Tree exposes the underlying NB-Tree in pointer form, materializing it from
// the flat representation if the index was opened over a mapping. Queries
// never call this — they navigate Flat — so view-backed indexes pay the
// rebuild only when something genuinely needs pointer nodes (inspection and
// tests). Not safe concurrently with itself or with Insert.
func (ix *Index) Tree() *nbtree.Tree {
	if ix.tree == nil {
		ix.tree = ix.flat.Rebuild()
	}
	return ix.tree
}

// Flat exposes the array form of the NB-Tree every query navigates.
func (ix *Index) Flat() *nbtree.Flat { return ix.flat }

// VO exposes the vantage orderings (read-only).
func (ix *Index) VO() *vantage.Ordering { return ix.vo }

// Grid returns the indexed thresholds.
func (ix *Index) Grid() []float64 { return ix.grid }

// Base returns the first graph ID the index covers (0 for a full index).
func (ix *Index) Base() graph.ID { return ix.base }

// Count returns the number of graphs the index covers.
func (ix *Index) Count() int { return ix.vo.Len() }

// LeafOf returns the leaf map: covered graph ID minus Base() to flat node
// index. Read-only; the persistence writer serializes it directly.
func (ix *Index) LeafOf() []int32 { return ix.leafOf }

// EmbeddingTable returns the encoded embedding table of a view-backed index,
// or nil when the embeddings live decoded on the heap (see Embeddings).
func (ix *Index) EmbeddingTable() *ged.Table { return ix.embTab }

// Bytes approximates the index memory footprint: vantage orderings, the
// NB-Tree (Fig. 6(l)), and the filter embeddings — encoded table or decoded
// vectors, whichever form this index carries. The derived sketch rows, 50
// bytes per graph, are not counted.
func (ix *Index) Bytes() int64 {
	b := ix.vo.Bytes() + ix.flat.Bytes()
	if ix.embTab != nil {
		return b + ix.embTab.Bytes()
	}
	for _, e := range ix.embs {
		b += e.Bytes()
	}
	return b
}

// Session is the initialization phase for one relevance function over a
// forest of index parts: the relevant set L_q, which no threshold changes. A
// Session answers any number of TopK calls at varying θ (interactive
// refinement) without repeating it; whatever a call derives from θ —
// candidate lists, leaf bounds, coverage — lives in that call's locals.
//
// After initialization a Session is read-only apart from the LastStats
// bookkeeping, which is mutex-guarded, so TopK and SweepTheta are safe to
// call from multiple goroutines concurrently (each call computes an
// independent answer). The index must not be mutated (Insert) while queries
// are in flight.
type Session struct {
	parts []*Index
	rel   *relSet
	// statsMu guards lastStats; every other Session field is immutable after
	// initialization, which is what makes concurrent TopK calls safe.
	statsMu   sync.Mutex
	lastStats QueryStats // guarded by statsMu
}

// QueryStats describes the work one TopK call performed.
type QueryStats struct {
	// PQPops counts the best-first search's heap pops, summed over the
	// call's greedy picks, for any number of parts.
	PQPops int
	// VerifiedLeaves counts candidate verifications, including the memoized
	// re-verifications of a graph already verified earlier in the call.
	VerifiedLeaves int
	// CandidateScans counts the vantage candidates handed to first
	// verifications: each verified graph's pass list — already filtered by
	// the sketch test where the pass runs it — minus the graphs already
	// covered when it is first verified. The call's vantage pass itself
	// scans every relevant graph, verified or not, and a memoized
	// re-verification scans nothing.
	CandidateScans int
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
	rel, err := newRelSet(ctx, db, q)
	if err != nil {
		return nil, err
	}
	return &Session{parts: parts, rel: rel}, nil
}

// RelevantCount returns |L_q| for the session.
func (s *Session) RelevantCount() int { return len(s.rel.ids) }

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

// ChooseGrid picks gridSize thresholds for the indexed grid from a sampled
// distance distribution with the default worker count and no cancellation.
// See ChooseGridContext.
func ChooseGrid(db *graph.Database, m metric.Metric, gridSize, samplePairs int, rng *rand.Rand) []float64 {
	grid, _ := ChooseGridContext(context.Background(), db, m, gridSize, samplePairs, 0, rng)
	return grid
}

// ChooseGridContext picks gridSize thresholds for the indexed grid from a
// sampled distance distribution, placing thresholds at equally spaced
// quantiles so that steep regions of the cumulative distribution get
// proportionally more thresholds (§7.1, scheme 2).
//
// The pairs are drawn from rng sequentially — the RNG stream is identical
// for any worker count — and only the distance evaluations fan out, each
// writing its pre-assigned slot, so the grid is deterministic in
// (db, samplePairs, rng seed) alone. A cancelled context returns ctx.Err().
func ChooseGridContext(ctx context.Context, db *graph.Database, m metric.Metric, gridSize, samplePairs, workers int, rng *rand.Rand) ([]float64, error) {
	if gridSize <= 0 || db.Len() < 2 {
		return nil, ctx.Err()
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
	if len(pairs) == 0 {
		return nil, ctx.Err()
	}
	ds := make([]float64, len(pairs))
	if err := pool.Ranges(ctx, len(pairs), workers, 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ds[i] = m.Distance(pairs[i].a, pairs[i].b)
		}
	}); err != nil {
		return nil, err
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
	// Always index past the sampled maximum so every realistic θ is covered.
	if max := ds[len(ds)-1]; len(grid) == 0 || grid[len(grid)-1] < max {
		grid = append(grid, max)
	}
	return grid, nil
}
