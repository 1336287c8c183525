package metric

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"graphrep/internal/graph"
)

// within is the verdict half of Decide.
func within(m Metric, a, b graph.ID, theta float64) bool {
	leq, _ := Decide(m, a, b, theta)
	return leq
}

// Every built-in metric must decide threshold tests exactly:
// Decide(m, a, b, θ) ⇔ Distance(a, b) ≤ θ, at thresholds on, below, and
// above the true distance.
func TestWithinMatchesDistance(t *testing.T) {
	db := testDB(t, 40, 3)
	metrics := map[string]Metric{
		"star":    Star(db),
		"counter": NewCounter(Star(db)),
		"cache":   NewCache(NewCounter(Star(db))),
		"matrix":  NewMatrix(db, Star(db), 2),
	}
	rng := rand.New(rand.NewSource(7))
	for name, m := range metrics {
		for trial := 0; trial < 400; trial++ {
			a := graph.ID(rng.Intn(db.Len()))
			b := graph.ID(rng.Intn(db.Len()))
			d := m.Distance(a, b)
			for _, theta := range []float64{d - 1, d - 0.5, d, d + 0.5, d + 1, 0, -1, d * 2} {
				if got := within(m, a, b, theta); got != (d <= theta) {
					t.Fatalf("%s: Decide(%d,%d,%v) = %v but Distance = %v", name, a, b, theta, got, d)
				}
			}
		}
	}
}

// Decide must fall back to an exact comparison (never pruned) for metrics
// without a bounded path.
func TestDecideFallback(t *testing.T) {
	db := testDB(t, 20, 5)
	star := Star(db)
	plain := Func(star.Distance)
	exact := ExactOnly(NewCache(star))
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		a := graph.ID(rng.Intn(db.Len()))
		b := graph.ID(rng.Intn(db.Len()))
		d := star.Distance(a, b)
		for _, theta := range []float64{d - 1, d, d + 1} {
			for name, m := range map[string]Metric{"plain": plain, "exactonly": exact} {
				leq, pruned := Decide(m, a, b, theta)
				if leq != (d <= theta) {
					t.Fatalf("%s: Decide(%d,%d,%v) = %v, distance %v", name, a, b, theta, leq, d)
				}
				if pruned {
					t.Fatalf("%s: Decide reported pruned for a metric with no bounded path", name)
				}
			}
		}
	}
}

// ExactOnly must hide the bounded threshold test entirely, so
// DisableBoundedKernel forces a full solve for every test.
func TestExactOnlyHidesWithin(t *testing.T) {
	m := ExactOnly(NewCache(Star(testDB(t, 5, 1))))
	if _, ok := m.(decider); ok {
		t.Error("ExactOnly metric still exposes the detailed decision path")
	}
}

// A pruned decision must still help later calls: the interval it stores
// answers a repeat of the same test from the table (a hit with no inner
// computation), and Misses continues to equal the inner computations issued.
func TestCacheIntervalMemoization(t *testing.T) {
	db := testDB(t, 30, 9)
	counter := NewCounter(Star(db))
	c := NewCache(counter)
	star := Star(db)

	// Find a pair and threshold whose fresh bounded decision is a prune with
	// an open interval [lo, ∞) — the cascade may instead volunteer the exact
	// value (a completed solve), which would store an exact entry and change
	// every count below, so probe with a scratch metric first.
	probe := Star(db).(*starMetric)
	var a, b graph.ID
	var d, theta float64
	found := false
	for i := 0; i < db.Len() && !found; i++ {
		for j := i + 1; j < db.Len() && !found; j++ {
			dd := star.Distance(graph.ID(i), graph.ID(j))
			if dd < 3 {
				continue
			}
			for _, th := range []float64{1, dd / 2, dd - 1} {
				if th <= 0 {
					continue
				}
				if dec := probe.boundedDecide(graph.ID(i), graph.ID(j), th); dec.pruned && math.IsInf(dec.hi, 1) {
					a, b, d, theta = graph.ID(i), graph.ID(j), dd, th
					found = true
					break
				}
			}
		}
	}
	if !found {
		t.Fatal("no pair with a pruned open-interval decision in test database")
	}
	if within(c, a, b, theta) {
		t.Fatalf("Decide(%v) true but distance is %v", theta, d)
	}
	if c.Misses() != 1 || c.Size() != 1 {
		t.Fatalf("after first Decide: misses=%d size=%d, want 1, 1", c.Misses(), c.Size())
	}
	// Identical repeat: decided by the stored interval, no inner computation.
	if within(c, a, b, theta) {
		t.Fatal("repeat Decide changed its verdict")
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("repeat Decide: hits=%d misses=%d, want 1, 1", c.Hits(), c.Misses())
	}
	// A lower threshold is decided by the same lower bound (lo > θ' too).
	if within(c, a, b, theta-5) {
		t.Fatal("Decide at lower threshold changed its verdict")
	}
	if c.Hits() != 2 || c.Misses() != 1 {
		t.Fatalf("lower-threshold Decide: hits=%d misses=%d, want 2, 1", c.Hits(), c.Misses())
	}
	if got := counter.Count(); got != c.Misses() {
		t.Fatalf("inner computations %d != misses %d", got, c.Misses())
	}

	// A Distance call cannot be served by the interval: it counts a miss,
	// computes, and upgrades the entry to exact without growing the table.
	if got := c.Distance(a, b); got != d {
		t.Fatalf("Distance = %v, want %v", got, d)
	}
	if c.Misses() != 2 || c.Size() != 1 {
		t.Fatalf("after Distance: misses=%d size=%d, want 2, 1", c.Misses(), c.Size())
	}
	// Now exact: every further call at any threshold is a hit.
	hits := c.Hits()
	if within(c, a, b, d) != true || within(c, a, b, d-0.5) != false || c.Distance(a, b) != d {
		t.Fatal("exact entry answered incorrectly")
	}
	if c.Hits() != hits+3 || c.Misses() != 2 {
		t.Fatalf("exact entry: hits=%d misses=%d, want %d, 2", c.Hits(), c.Misses(), hits+3)
	}

	// Clear drops interval entries along with exact ones.
	c.Clear()
	if c.Size() != 0 || c.Hits() != 0 || c.Misses() != 0 {
		t.Fatal("Clear left residue")
	}
}

// weakBounded is a test metric whose bounded path never volunteers the exact
// value: a false verdict proves only lo = nextafter(θ), a true verdict only
// hi = θ. Every repeat probe at a fresh threshold inside the stored interval
// is therefore undecided, which exercises the Cache's promote-to-exact policy
// deterministically.
type weakBounded struct {
	d     float64
	calls int
}

func (f *weakBounded) Distance(a, b graph.ID) float64 {
	f.calls++
	return f.d
}

func (f *weakBounded) boundedDecide(a, b graph.ID, theta float64) decision {
	f.calls++
	if f.d > theta {
		return decision{leq: false, pruned: true, lo: math.Nextafter(theta, math.Inf(1)), hi: math.Inf(1)}
	}
	return decision{leq: true, pruned: true, lo: 0, hi: theta}
}

// The first undecided repeat probe on a pair must promote the entry to exact,
// after which every test at any threshold is a table hit and the inner metric
// is never consulted again.
func TestCachePromoteToExact(t *testing.T) {
	inner := &weakBounded{d: 10}
	c := NewCache(inner)
	a, b := graph.ID(0), graph.ID(1)

	// Ascending thresholds below d: each probe stores lo just above its θ,
	// so the next θ is always inside the stored interval — an undecided
	// repeat. Probe 1 is the initial miss; probe 2 is the first repeat, which
	// computes the exact distance instead of issuing another partial
	// decision.
	for i, theta := range []float64{4, 5} {
		if within(c, a, b, theta) {
			t.Fatalf("probe %d: Decide(%v) = true, distance %v", i+1, theta, inner.d)
		}
	}
	if inner.calls != 2 {
		t.Fatalf("inner calls = %d after promotion window, want 2 (1 bounded probe + 1 exact)", inner.calls)
	}
	if c.Misses() != 2 {
		t.Fatalf("misses = %d, want 2", c.Misses())
	}
	// Promoted: every further call, at any threshold, is a hit.
	hits := c.Hits()
	if within(c, a, b, 9) || !within(c, a, b, 10) || c.Distance(a, b) != 10 {
		t.Fatal("promoted entry answered incorrectly")
	}
	if inner.calls != 2 {
		t.Errorf("inner consulted after promotion: %d calls", inner.calls)
	}
	if c.Hits() != hits+3 || c.Misses() != 2 {
		t.Errorf("hits=%d misses=%d after promotion, want %d, 2", c.Hits(), c.Misses(), hits+3)
	}
}

// Concurrent Decide/Distance storms on one Cache must converge to exact
// values that agree with an uncached reference, with the hit/miss invariant
// (hits + misses == non-identity lookups, misses == inner computations)
// intact. Run under -race this also checks the striped locking around the
// interval merges.
func TestCacheBoundedConcurrent(t *testing.T) {
	db := testDB(t, 25, 13)
	counter := NewCounter(Star(db))
	c := NewCache(counter)
	ref := Star(db)

	const workers = 8
	const perWorker = 600
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				a := graph.ID(rng.Intn(db.Len()))
				b := graph.ID(rng.Intn(db.Len()))
				theta := float64(rng.Intn(12))
				if rng.Intn(3) == 0 {
					d := c.Distance(a, b)
					if want := ref.Distance(a, b); d != want {
						errs <- "Distance diverged from reference"
						return
					}
				} else if got, want := within(c, a, b, theta), ref.Distance(a, b) <= theta; got != want {
					errs <- "Decide diverged from reference"
					return
				}
			}
		}(int64(100 + w))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if c.Misses() != counter.Count() {
		t.Errorf("misses %d != inner computations %d", c.Misses(), counter.Count())
	}

	// After the storm, sequential Distance calls over every pair must still
	// equal the reference: intervals never corrupt values.
	for i := 0; i < db.Len(); i++ {
		for j := 0; j < db.Len(); j++ {
			a, b := graph.ID(i), graph.ID(j)
			if got, want := c.Distance(a, b), ref.Distance(a, b); got != want {
				t.Fatalf("post-storm Distance(%d,%d) = %v, want %v", a, b, got, want)
			}
		}
	}
}

// The Star metric's PruneStats must account for every bounded decision and
// every exact value computation, with pruned + full solves == total tests.
func TestStarPruneStats(t *testing.T) {
	db := testDB(t, 30, 17)
	star := Star(db)
	sc := star.(StageCounter)
	if s := sc.PruneStats(); s != (PruneStats{}) {
		t.Fatalf("fresh metric has nonzero stats: %+v", s)
	}
	rng := rand.New(rand.NewSource(19))
	tests := 0
	for i := 0; i < 500; i++ {
		a := graph.ID(rng.Intn(db.Len()))
		b := graph.ID(rng.Intn(db.Len()))
		if a == b {
			continue
		}
		Decide(star, a, b, float64(rng.Intn(14)))
		tests++
	}
	s := sc.PruneStats()
	if got := s.Pruned() + s.FullSolves(); got != int64(tests) {
		t.Errorf("stage counts %+v sum to %d, want %d bounded tests", s, got, tests)
	}
	if s.ExactValues != 0 {
		t.Errorf("ExactValues = %d without any Distance call", s.ExactValues)
	}
	star.Distance(0, 1)
	if s := sc.PruneStats(); s.ExactValues != 1 {
		t.Errorf("ExactValues = %d after one Distance call, want 1", s.ExactValues)
	}
}
