// Package shard partitions a graph database into contiguous ID ranges, each
// owning its own NB-Index part (vantage rows + NB-Tree), and coordinates
// top-k representative queries across them. A shard is just a top-level
// cluster: the paper's π̂ bounds compose across disjoint partitions, so
// sharding preserves exactness while unlocking parallel builds and
// fine-grained write locking.
//
// # Determinism contract
//
// Every shard shares one global vantage point set and one global θ grid,
// both drawn from the build RNG exactly as the unsharded build draws them.
// A graph's embedding coordinates (its distances to the global VPs) are
// therefore valid against any shard's sorted views, so cross-shard candidate
// scans cost zero extra distance computations and the union of per-shard
// candidate sets equals the unsharded candidate set exactly. A graph's
// candidate list concatenated across shards is its unsharded list, so its
// leaf bound is the unsharded one, bounds stay admissible, and the
// coordinator's one best-first search over every shard's tree (an
// nbindex.Session over the forest of parts) verifies every candidate whose
// bound reaches the best verified gain — so answers are byte-identical to
// the unsharded engine for any shard count (per-query work counters do vary
// with the shard count, since each count's forest has its own shape). With
// one shard the build passes the global RNG straight through and produces
// bit-identical index bytes to the pre-shard engine.
package shard

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"graphrep/internal/graph"
	"graphrep/internal/metric"
	"graphrep/internal/nbindex"
	"graphrep/internal/pool"
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
	// VPPolicy selects the vantage point policy (default SelectRandom).
	VPPolicy vantage.SelectionPolicy
	// Branching is the per-shard NB-Tree fan-out (≥ 2; 0 defaults to 4).
	Branching int
	// ThetaGrid lists the indexed thresholds, ascending: SweepTheta's default
	// points. One global grid serves every shard.
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
// is selected from rng exactly as the unsharded build selects it; with one
// shard rng then drives the tree build directly (bit-identical bytes to the
// unsharded index), and with S > 1 each shard derives its own seed from rng
// sequentially and the shard builds run concurrently on the worker pool —
// every randomized decision is pinned before the fan-out, so the set is
// identical for any Workers value. Cancellation is observed at phase
// boundaries and inside every parallel fill.
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
	vps, err := vantage.SelectVPs(db, m, numVPs, opt.VPPolicy, rng)
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
	if len(plan) == 1 {
		// Single shard: keep consuming the caller's RNG stream directly so
		// the part is bit-identical to the pre-shard (unsharded) index.
		part, err := nbindex.BuildPartContext(ctx, db, m, vps, opt.ThetaGrid,
			plan[0].Base, plan[0].Count, opt.Branching, opt.Workers, rng)
		if err != nil {
			return nil, err
		}
		s.parts[0] = part
	} else {
		// Multi-shard: pin one seed per shard from the sequential stream,
		// then build shards concurrently, each on its own deterministic RNG.
		seeds := make([]int64, len(plan))
		for i := range seeds {
			seeds[i] = rng.Int63()
		}
		errs := make([]error, len(plan))
		outer := opt.Workers
		if r := pool.Resolve(outer); r > len(plan) {
			outer = len(plan)
		}
		if err := pool.Ranges(ctx, len(plan), outer, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				s.parts[i], errs[i] = nbindex.BuildPartContext(ctx, db, m, vps, opt.ThetaGrid,
					plan[i].Base, plan[i].Count, opt.Branching, opt.Workers,
					rand.New(rand.NewSource(seeds[i])))
			}
		}); err != nil {
			return nil, err
		}
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	done := time.Now() //lint:allow detrand build-phase wall-time gauge; timing only, never influences index content
	s.timing.VPSelect = tVPs.Sub(start)
	s.timing.Total = done.Sub(start)
	for _, part := range s.parts {
		t := part.Timing()
		s.timing.Vantage += t.Vantage
		s.timing.Tree += t.Tree
	}
	return s, nil
}

// Shards returns the number of shards.
func (s *Set) Shards() int { return len(s.parts) }

// Part returns shard p's NB-Index part (read-only).
func (s *Set) Part(p int) *nbindex.Index { return s.parts[p] }

// Grid returns the shared indexed thresholds.
func (s *Set) Grid() []float64 { return s.grid }

// Bytes approximates the memory footprint: the sum over shards of vantage
// rows plus NB-Tree structure.
func (s *Set) Bytes() int64 {
	var b int64
	for _, part := range s.parts {
		b += part.Bytes()
	}
	return b
}

// Timing aggregates construction timing: VPSelect and Total are wall times
// of the whole build; Vantage and Tree sum the per-shard phases (they exceed
// wall time when shards build concurrently).
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

// PartFor returns the index of the shard owning graph id.
func (s *Set) PartFor(id graph.ID) int {
	lo, hi := 0, len(s.parts)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if s.parts[mid].Base() <= id {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// Insert extends the set with a graph already appended to the database (its
// ID must be the database's last). The new graph lands in the last shard —
// the only one whose range borders the database's end — so concurrent
// readers of other shards are unaffected; internal/server exploits this with
// per-shard locks. Not safe concurrently with queries touching the last
// shard.
func (s *Set) Insert(id graph.ID) error {
	// Inserting computes distances against mapped graph content; settle the
	// store's deferred validation first (cached after the first call).
	if err := s.db.EnsureValid(); err != nil {
		return fmt.Errorf("shard: graph store: %w", err)
	}
	return s.parts[len(s.parts)-1].Insert(id)
}
