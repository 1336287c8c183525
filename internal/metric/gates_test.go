package metric

import (
	"testing"

	"graphrep/internal/ged"
	"graphrep/internal/graph"
)

// gateSpins drives one pair well past the gate warmup, so a closing gate has
// closed and a live one has proven it stays open.
const gateSpins = gateWarmupFloor + 256

// pairDB assembles a two-graph database from searched graphs carrying
// placeholder IDs, re-built at positions 0 and 1.
func pairDB(t *testing.T, a, b *graph.Graph) *graph.Database {
	t.Helper()
	graphs := make([]*graph.Graph, 0, 2)
	for i, g := range []*graph.Graph{a, b} {
		gg, err := g.Clone(graph.ID(i)).Build(graph.ID(i))
		if err != nil {
			t.Fatalf("re-ID graph %d: %v", i, err)
		}
		graphs = append(graphs, gg)
	}
	db, err := graph.NewDatabase(graphs)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// hammerPair decides the same threshold test gateSpins times on a fresh Star
// metric, failing if the verdict ever flips — gate closures must never change
// an answer — and returns the final counter state.
func hammerPair(t *testing.T, a, b *graph.Graph, tau float64) PruneStats {
	t.Helper()
	star := Star(pairDB(t, a, b))
	want := within(star, 0, 1, tau)
	for i := 1; i < gateSpins; i++ {
		if got := within(star, 0, 1, tau); got != want {
			t.Fatalf("verdict flipped at decision %d: %v -> %v (gate closure changed an answer)", i, want, got)
		}
	}
	return star.(StageCounter).PruneStats()
}

// A pair deciding at the exact stage is a greedy attempt that never lands:
// the tier runs and is counted, but the verdict always comes from the
// completed solve. The gate must retire the tier exactly at the warmup
// boundary — the attempt denominator freezes at the warmup (the floor, for
// this two-graph database) — while every decision before and after still
// lands on the exact stage.
func TestGreedyGateRetiresMissingTier(t *testing.T) {
	a, b, tau := findStagePair(t, ged.StageExact)
	s := hammerPair(t, a, b, tau)
	if s.Greedy != 0 {
		t.Fatalf("fixture landed %d greedy successes, want 0 (%+v)", s.Greedy, s)
	}
	if s.GreedyTried != gateWarmupFloor {
		t.Errorf("greedy attempt denominator = %d, want frozen at warmup %d", s.GreedyTried, int64(gateWarmupFloor))
	}
	if s.BoundedExact != gateSpins {
		t.Errorf("exact stage fired %d of %d decisions: retiring the greedy tier moved decisions off the exact stage", s.BoundedExact, int64(gateSpins))
	}
}

// An isomorphic pair at θ = 0 is a greedy attempt that always lands (only the
// greedy upper bound — a zero-cost assignment — can prove d ≤ 0): the fire
// rate holds at 1 and the gate must never close.
func TestGreedyGateKeepsLandingTier(t *testing.T) {
	iso := graphSpec{labels: []graph.Label{1, 2}, edges: [][3]int{{0, 1, 0}}}
	s := hammerPair(t, iso.build(t, 0), iso.build(t, 1), 0)
	if s.Greedy != gateSpins || s.GreedyTried != gateSpins {
		t.Errorf("always-landing greedy tier was throttled: %d successes over %d attempts, want %d over %d",
			s.Greedy, s.GreedyTried, int64(gateSpins), int64(gateSpins))
	}
}

// The warmup policy: the floor for small databases, pairs/256 once the pair
// count dominates. These values are load-bearing — the bench reference runs
// at n=400 and n=4000 discuss gate behavior in terms of them — so the policy
// is pinned exactly.
func TestGateWarmupPolicy(t *testing.T) {
	cases := []struct {
		n    int
		want int64
	}{
		{0, gateWarmupFloor},
		{2, gateWarmupFloor},
		{400, 4096},
		{1449, 4097},            // first n past the floor ...
		{1448, gateWarmupFloor}, // ... one below stays on it
		{4000, 31242},
		{40000, 3124921},
	}
	for _, c := range cases {
		if got := gateWarmupFor(c.n); got != c.want {
			t.Errorf("gateWarmupFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	star := Star(pairDB(t, graphSpec{labels: []graph.Label{1}}.build(t, 0), graphSpec{labels: []graph.Label{2}}.build(t, 1)))
	if w := star.(*starMetric).gateWarmup; w != gateWarmupFloor {
		t.Errorf("two-graph metric warmup = %d, want the floor %d", w, int64(gateWarmupFloor))
	}
}
