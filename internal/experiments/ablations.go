package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"graphrep/internal/core"
	"graphrep/internal/dataset"
	"graphrep/internal/ged"
	"graphrep/internal/graph"
	"graphrep/internal/metric"
	"graphrep/internal/nbindex"
)

// The ext-* experiments are not paper artifacts: they are the ablations of
// the design choices DESIGN.md §4 calls out, plus an empirical check of the
// approximation guarantee. They run through the same registry so repbench
// can regenerate them.

// RunExtAblation measures each NB-Index design choice in isolation on the
// DUD-like dataset: the vantage point count, the update and selection steps
// of Alg. 1, and the distance function.
func RunExtAblation(w io.Writer, s Scale) error {
	fx, err := NewFixture("dud", s.N, s, 2000)
	if err != nil {
		return err
	}
	header(w, "ext-ablation: NB-Index design choices", fx, s)

	// 1. Vantage point count: query-phase distances vs |V|.
	fmt.Fprintf(w, "%-8s %14s %12s\n", "|V|", "query dists", "time ms")
	for _, nv := range []int{1, 2, 4, 8, 16} {
		if nv > fx.DB.Len() {
			break
		}
		ixV, err := nbindex.Build(fx.DB, fx.M, nbindex.Options{
			NumVPs: nv, ThetaGrid: fx.Grid,
		}, rand.New(rand.NewSource(2001)))
		if err != nil {
			return err
		}
		fx.ResetDistances()
		before := fx.Count.Count()
		start := time.Now()
		if _, err := ixV.NewSession(fx.Rel).TopK(fx.Theta, 10); err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8d %14d %12.1f\n", nv, fx.Count.Count()-before, ms(time.Since(start)))
	}

	// 2. Update-step work: literal Alg. 1 with and without the Theorem 3
	// restriction, and the CELF lazy evaluation of the selection step.
	mt, err := fx.MTree()
	if err != nil {
		return err
	}
	q := core.Query{Relevance: fx.Rel, Theta: fx.Theta, K: 10}
	_, fullStats, err := core.MutatingGreedy(fx.DB, fx.M, mt, q, false)
	if err != nil {
		return err
	}
	_, thm3Stats, err := core.MutatingGreedy(fx.DB, fx.M, mt, q, true)
	if err != nil {
		return err
	}
	rel := core.Relevant(fx.DB, fx.Rel)
	nbhd := core.PairwiseNeighborhoods(fx.DB, fx.M, rel, fx.Theta)
	lazyRes, lazyStats := core.LazyGreedy(nbhd, 10)
	fmt.Fprintf(w, "\nupdate-step ablation (Alg. 1): full subtractions=%d, Theorem-3 restricted=%d\n",
		fullStats.UpdatedSets, thm3Stats.UpdatedSets)
	fmt.Fprintf(w, "selection-step ablation: CELF evaluations=%d vs plain %d\n",
		lazyStats.Evaluations, len(rel)*len(lazyRes.Answer))

	// 3. Distance function: star metric vs bipartite GED cost and agreement.
	fmt.Fprintf(w, "\n%-12s %14s\n", "distance", "ns/computation")
	rng := rand.New(rand.NewSource(2003))
	pairs := make([][2]graph.ID, 200)
	for i := range pairs {
		pairs[i] = [2]graph.ID{graph.ID(rng.Intn(fx.DB.Len())), graph.ID(rng.Intn(fx.DB.Len()))}
	}
	star := metric.Star(fx.DB)
	bip := metric.BipartiteGED(fx.DB, ged.UniformCosts())
	for _, d := range []struct {
		name string
		m    metric.Metric
	}{{"star", star}, {"bipartite", bip}} {
		start := time.Now()
		for _, p := range pairs {
			d.m.Distance(p[0], p[1])
		}
		fmt.Fprintf(w, "%-12s %14d\n", d.name, time.Since(start).Nanoseconds()/int64(len(pairs)))
	}
	return nil
}

// RunExtApprox empirically validates the (1 − 1/e) guarantee: on many small
// random instances the greedy answer is compared with the brute-force
// optimum.
func RunExtApprox(w io.Writer, s Scale) error {
	fmt.Fprintln(w, "== ext-approx: greedy vs optimal representative power ==")
	fmt.Fprintf(w, "%8s %10s %10s %10s\n", "trial", "greedy π", "opt π", "ratio")
	worst := 1.0
	trials := 10
	for trial := 0; trial < trials; trial++ {
		db, err := dudTiny(14, int64(3000+trial))
		if err != nil {
			return err
		}
		m := metric.NewCache(metric.Star(db))
		q := core.Query{Relevance: func([]float64) bool { return true }, Theta: 12, K: 3}
		greedy, err := core.BaselineGreedy(db, m, q)
		if err != nil {
			return err
		}
		opt, err := core.BruteForceOptimal(db, m, q)
		if err != nil {
			return err
		}
		ratio := 1.0
		if opt.Power > 0 {
			ratio = greedy.Power / opt.Power
		}
		if ratio < worst {
			worst = ratio
		}
		fmt.Fprintf(w, "%8d %10.3f %10.3f %10.3f\n", trial, greedy.Power, opt.Power, ratio)
	}
	fmt.Fprintf(w, "worst ratio %.3f (guarantee: ≥ %.3f)\n", worst, 1-1/2.718281828459045)
	return nil
}

// dudTiny builds a very small DUD-like database for brute-force comparisons.
func dudTiny(n int, seed int64) (*graph.Database, error) {
	return dataset.Generate(dataset.Config{
		N: n, Seed: seed,
		MinOrder: 8, MaxOrder: 14,
		VertexLabels: 6, EdgeLabels: 2,
		MeanFamily: 4, OutlierFrac: 0.1, Edits: 2,
		ExtraEdgeProb: 0.02,
		FeatureDim:    2, FeatureNoise: 0.1,
	})
}
