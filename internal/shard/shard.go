// Package shard partitions a graph database into contiguous ID ranges, each
// owning its own NB-Index part (vantage rows + embedding records), and
// coordinates top-k representative queries across them. The paper's π̂
// bounds compose across disjoint partitions, so sharding preserves
// exactness.
//
// # Determinism contract
//
// Every shard shares one global vantage point set, drawn from the build RNG
// exactly as the unsharded build draws it, and one global θ grid, derived
// from the vantage rows of all shards in global ID order unless the caller
// gives one; a part draws no randomness of its own. A graph's embedding
// coordinates (its distances to the global VPs) are therefore valid against
// any shard's ordering, so cross-shard candidate scans cost zero extra
// distance computations and the union of per-shard candidate sets equals
// the unsharded candidate set exactly. A graph's candidate list concatenated
// across shards is its unsharded list, so its bound is the unsharded one,
// and the coordinator's search (an nbindex.Session over the forest of
// parts) keys one heap by global rel position. Answers and per-query work
// counters are therefore identical to the unsharded engine's for any shard
// count, and with one shard the index bytes are too.
package shard

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"graphrep/internal/graph"
	"graphrep/internal/metric"
	"graphrep/internal/nbindex"
	"graphrep/internal/vantage"
)

// Options configures a sharded build.
type Options struct {
	// Shards is the number of contiguous ID-range partitions; values ≤ 1
	// mean one shard (the unsharded layout), and counts beyond the database
	// size are clamped so no shard is empty.
	Shards int
	// NumVPs is the size of the global vantage point set (shared by every
	// shard).
	NumVPs int
	// ThetaGrid lists the indexed thresholds, ascending: SweepTheta's default
	// points. One global grid serves every shard. Empty derives it from the
	// built vantage rows (see vantageGrid), which costs no distance and no
	// draw from the build RNG.
	ThetaGrid []float64
	// Workers bounds build and query vantage-pass goroutines (≤ 0 means
	// GOMAXPROCS). Index bytes and answers are identical for any value.
	Workers int
}

// Range is one shard's contiguous ID range [Base, Base+Count).
type Range struct {
	Base  graph.ID
	Count int
}

// Plan partitions n graphs into at most shards contiguous ranges with sizes
// differing by at most one (larger ranges first). Deterministic in (n,
// shards); counts ≤ 1 or ≥ n collapse to the obvious layouts.
func Plan(n, shards int) []Range {
	if shards < 1 {
		shards = 1
	}
	if shards > n {
		shards = n
	}
	out := make([]Range, 0, shards)
	base, rem := 0, n%shards
	for i := 0; i < shards; i++ {
		count := n / shards
		if i < rem {
			count++
		}
		out = append(out, Range{Base: graph.ID(base), Count: count})
		base += count
	}
	return out
}

// Set is a sharded NB-Index: one nbindex part per contiguous ID range plus
// the shared θ grid. Immutable after Build apart from Insert (which extends
// only the last shard) and the telemetry attachment.
type Set struct {
	db     *graph.Database
	grid   []float64
	parts  []*nbindex.Index
	timing nbindex.BuildTiming
}

// Build constructs a sharded NB-Index with no cancellation. See BuildContext.
func Build(db *graph.Database, m metric.Metric, opt Options, rng *rand.Rand) (*Set, error) {
	return BuildContext(context.Background(), db, m, opt, rng)
}

// BuildContext constructs a sharded NB-Index. The global vantage point set
// is selected from rng exactly as the unsharded build selects it, and rng is
// read no further. The parts then build one after another, each filling its
// vantage rows and embedding records on the worker pool, and a grid left
// empty is derived from their rows, so the set is identical for any Workers
// value. Cancellation is observed at phase boundaries and inside every
// parallel fill.
func BuildContext(ctx context.Context, db *graph.Database, m metric.Metric, opt Options, rng *rand.Rand) (*Set, error) {
	if db.Len() == 0 {
		return nil, fmt.Errorf("shard: empty database")
	}
	if opt.NumVPs <= 0 {
		return nil, fmt.Errorf("shard: NumVPs = %d", opt.NumVPs)
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
	plan := Plan(db.Len(), opt.Shards)
	s := &Set{
		db:    db,
		grid:  append([]float64(nil), opt.ThetaGrid...),
		parts: make([]*nbindex.Index, len(plan)),
	}
	for i, r := range plan {
		part, err := nbindex.BuildPartContext(ctx, db, m, vps, opt.ThetaGrid, r.Base, r.Count, opt.Workers)
		if err != nil {
			return nil, err
		}
		s.parts[i] = part
		s.timing.Vantage += part.Timing().Vantage
	}
	if len(s.grid) == 0 {
		s.grid = vantageGrid(s.parts, db.Len())
		for _, part := range s.parts {
			part.SetGrid(s.grid)
		}
	}
	done := time.Now() //lint:allow detrand build-phase wall-time gauge; timing only, never influences index content
	s.timing.VPSelect = tVPs.Sub(start)
	s.timing.Total = done.Sub(start)
	return s, nil
}

// vantageGrid derives the default θ grid from the parts' vantage rows
// (§7.1, scheme 2, placed by nbindex.QuantileGrid at ten quantiles). The
// VPs are drawn uniformly and measured against every graph, so their rows
// already sample the pairwise-distance distribution, at no distance cost
// beyond the build's own. The sample reads d(v, g) for every VP v and graph
// g ≠ v, VP-major and in ascending global ID across the parts, and keeps
// every s-th value, s = ⌈|V|·n / min(8n, 20 000)⌉: the same values for any
// shard or worker count, and never more than min(8n, 20 000) of them. A
// one-graph database has no such pair and gets the grid {1}.
func vantageGrid(parts []*nbindex.Index, n int) []float64 {
	vps := parts[0].VO().VPs()
	limit := min(8*n, 20000)
	stride := (len(vps)*n + limit - 1) / limit
	sample := make([]float64, 0, len(vps)*n/stride+1)
	k := 0
	for v, vp := range vps {
		for _, part := range parts {
			base := part.Base()
			for i, d := range part.VO().DistRow(v) {
				if base+graph.ID(i) == vp {
					continue
				}
				if k%stride == 0 {
					sample = append(sample, d)
				}
				k++
			}
		}
	}
	if grid := nbindex.QuantileGrid(sample, 10); grid != nil {
		return grid
	}
	return []float64{1}
}

// Shards returns the number of shards.
func (s *Set) Shards() int { return len(s.parts) }

// Part returns shard p's NB-Index part (read-only).
func (s *Set) Part(p int) *nbindex.Index { return s.parts[p] }

// Grid returns the shared indexed thresholds.
func (s *Set) Grid() []float64 { return s.grid }

// Bytes approximates the memory footprint: the sum over shards of vantage
// rows plus embedding table.
func (s *Set) Bytes() int64 {
	var b int64
	for _, part := range s.parts {
		b += part.Bytes()
	}
	return b
}

// Timing aggregates construction timing: VPSelect and Total are wall times
// of the whole build; Vantage sums the per-shard vantage fills.
func (s *Set) Timing() nbindex.BuildTiming { return s.timing }

// SetWorkers bounds the goroutines later queries' vantage passes use (≤ 0
// means GOMAXPROCS). Useful after Read, which has no Options.
func (s *Set) SetWorkers(w int) {
	for _, part := range s.parts {
		part.SetWorkers(w)
	}
}

// SetTelemetry attaches an aggregator to every part: every TopK call on
// every session of this set folds its QueryStats in. Pass nil to detach.
func (s *Set) SetTelemetry(t *nbindex.Telemetry) {
	for _, part := range s.parts {
		part.SetTelemetry(t)
	}
}

// UseSketchFilter turns on the sketch test in every part's query pass (see
// nbindex.Index.UseSketchFilter): call it only for the star metric.
func (s *Set) UseSketchFilter() {
	for _, part := range s.parts {
		part.UseSketchFilter()
	}
}

// Insert extends the set with a graph already appended to the database (its
// ID must be the database's last). The new graph lands in the last shard —
// the only one whose range borders the database's end — and no other part
// changes. A session spans every shard, so Insert is not safe concurrently
// with any session's initialization or query; reads of the copy-on-write
// database alone may run beside it (internal/server's /graph).
func (s *Set) Insert(id graph.ID) error {
	// Inserting computes distances against mapped graph content; settle the
	// store's deferred validation first (cached after the first call).
	if err := s.db.EnsureValid(); err != nil {
		return fmt.Errorf("shard: graph store: %w", err)
	}
	return s.parts[len(s.parts)-1].Insert(id)
}
