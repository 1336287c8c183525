package graphrep_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"graphrep"
)

// The randomized differential oracle: on small random databases, for random
// relevance functions, thresholds and budgets, the NB-Index answer must equal
// the brute-force greedy (TopKRepresentativeExact, Alg. 1 over exact
// distances) — answer, gains, coverage — for every shard count, worker count
// and kernel setting. The fixed-workload equality suites pin one engine
// against another; this one pins every engine against the definition, on
// inputs no one chose.

// oracleQuery is one randomly drawn query of the oracle.
type oracleQuery struct {
	desc  string
	rel   graphrep.Relevance
	theta float64
	k     int
}

// oracleGrid derives an explicit θ grid from sampled exact distances: a few
// low quantiles, where answers are neither trivial nor a single cover-all.
func oracleGrid(rng *rand.Rand, db *graphrep.Database) []float64 {
	var ds []float64
	for i := 0; i < 300; i++ {
		a, b := graphrep.ID(rng.Intn(db.Len())), graphrep.ID(rng.Intn(db.Len()))
		if a != b {
			ds = append(ds, graphrep.Distance(db.Graph(a), db.Graph(b)))
		}
	}
	sort.Float64s(ds)
	var grid []float64
	for _, q := range []float64{0.02, 0.06, 0.12, 0.25, 0.4} {
		if v := ds[int(q*float64(len(ds)-1))]; len(grid) == 0 || v > grid[len(grid)-1] {
			grid = append(grid, v)
		}
	}
	return grid
}

// oracleTheta draws θ on a grid point, between two, below the grid or past
// its end.
func oracleTheta(rng *rand.Rand, grid []float64) (float64, string) {
	i := rng.Intn(len(grid))
	switch rng.Intn(4) {
	case 0:
		return grid[i], "on"
	case 1:
		if i+1 < len(grid) {
			return grid[i] + (grid[i+1]-grid[i])*(0.1+0.8*rng.Float64()), "between"
		}
		return grid[i] * 1.25, "past"
	case 2:
		return grid[0] * rng.Float64(), "below"
	default:
		return grid[len(grid)-1] * (1 + rng.Float64()), "past"
	}
}

// oracleRelevance draws a quartile, threshold or weighted relevance function.
// Thresholds sit at a random score quantile so that 10–70% of the database
// is relevant.
func oracleRelevance(rng *rand.Rand, db *graphrep.Database) (graphrep.Relevance, string) {
	dim := db.FeatureDim()
	var dims []int
	for d := 0; d < dim; d++ {
		if rng.Intn(3) == 0 {
			dims = append(dims, d)
		}
	}
	if len(dims) == 0 {
		dims = []int{rng.Intn(dim)}
	}
	quantile := func(score graphrep.Score) float64 {
		scores := make([]float64, db.Len())
		for i := range scores {
			scores[i] = score(db.Graph(graphrep.ID(i)).Features())
		}
		sort.Float64s(scores)
		return scores[int((0.3+0.6*rng.Float64())*float64(len(scores)-1))]
	}
	switch rng.Intn(3) {
	case 0:
		if rng.Intn(2) == 0 {
			dims = nil
		}
		return graphrep.FirstQuartileRelevance(db, dims), fmt.Sprintf("quartile%v", dims)
	case 1:
		score := graphrep.DimensionScore(dims)
		tau := quantile(score)
		return func(f []float64) bool { return score(f) >= tau }, fmt.Sprintf("threshold%v≥%.3g", dims, tau)
	default:
		w := make([]float64, dim)
		for d := range w {
			w[d] = 2*rng.Float64() - 1
		}
		tau := quantile(graphrep.WeightedScore(w))
		return graphrep.WeightedRelevance(w, tau), fmt.Sprintf("weighted≥%.3g", tau)
	}
}

// sameResult reports whether got carries want's answer, gains and coverage.
func sameResult(got, want *graphrep.Result) bool {
	return reflect.DeepEqual(got.Answer, want.Answer) && reflect.DeepEqual(got.Gains, want.Gains) &&
		got.Covered == want.Covered && got.Relevant == want.Relevant
}

// TestDifferentialOracle runs seeded random databases from the dud, dblp and
// amazon generators (n ≤ 120) through every engine configuration — Shards
// 1/2/4 × Workers 1/GOMAXPROCS × bounded kernel on/off — and checks:
//
//   - one-shot queries (a fresh session each) with random relevance, θ on,
//     between, below and past the grid points, and k in 1–8;
//   - one session reused over a ±10% θ walk, the interactive-refinement
//     pattern;
//   - two goroutines calling TopK on one shared session at once.
//
// Every answer must equal TopKRepresentativeExact's.
func TestDifferentialOracle(t *testing.T) {
	workers := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		workers = append(workers, p)
	}
	rng := rand.New(rand.NewSource(14))
	for trial, name := range []string{"dud", "dblp", "amazon"} {
		n := 40 + rng.Intn(81)
		seed := rng.Int63n(1 << 20)
		db, err := graphrep.GenerateDataset(name, n, seed)
		if err != nil {
			t.Fatal(err)
		}
		grid := oracleGrid(rng, db)
		var queries []oracleQuery
		for i := 0; i < 5; i++ {
			rel, relDesc := oracleRelevance(rng, db)
			theta, where := oracleTheta(rng, grid)
			k := 1 + rng.Intn(8)
			queries = append(queries, oracleQuery{
				desc: fmt.Sprintf("%s θ=%.4g (%s grid %v) k=%d", relDesc, theta, where, grid, k),
				rel:  rel, theta: theta, k: k,
			})
		}
		walkRel, walkDesc := oracleRelevance(rng, db)
		walk := []float64{grid[rng.Intn(len(grid))]}
		for i := 0; i < 7; i++ {
			step := 1.1
			if rng.Intn(2) == 0 {
				step = 0.9
			}
			walk = append(walk, walk[len(walk)-1]*step)
		}
		walkK := 1 + rng.Intn(8)
		t.Logf("trial %d: %s n=%d seed=%d grid %v", trial, name, n, seed, grid)

		// The reference answers, from the first engine's exact path; they
		// depend on the database and the metric only.
		var exact []*graphrep.Result
		exactWalk := make(map[float64]*graphrep.Result)
		for _, shards := range []int{1, 2, 4} {
			// Build once per shard count; the other worker and kernel settings
			// reopen the saved index, whose bytes neither setting changes.
			built, err := graphrep.Open(db, graphrep.Options{Seed: seed, Shards: shards, Workers: workers[0], ThetaGrid: grid})
			if err != nil {
				t.Fatal(err)
			}
			var index bytes.Buffer
			if err := built.SaveIndex(&index); err != nil {
				t.Fatal(err)
			}
			for _, w := range workers {
				for _, kernelOff := range []bool{false, true} {
					cfg := fmt.Sprintf("trial %d (%s n=%d seed=%d) shards=%d workers=%d kernelOff=%v",
						trial, name, n, seed, shards, w, kernelOff)
					engine := built
					if w != workers[0] || kernelOff {
						engine, err = graphrep.OpenWithIndex(db, bytes.NewReader(index.Bytes()),
							graphrep.Options{Workers: w, DisableBoundedKernel: kernelOff})
						if err != nil {
							t.Fatalf("%s: %v", cfg, err)
						}
					}
					if exact == nil {
						for _, q := range queries {
							res, err := engine.TopKRepresentativeExact(graphrep.Query{Relevance: q.rel, Theta: q.theta, K: q.k})
							if err != nil {
								t.Fatal(err)
							}
							exact = append(exact, res)
						}
						for _, theta := range walk {
							res, err := engine.TopKRepresentativeExact(graphrep.Query{Relevance: walkRel, Theta: theta, K: walkK})
							if err != nil {
								t.Fatal(err)
							}
							exactWalk[theta] = res
						}
					}
					for i, q := range queries {
						got, err := engine.TopKRepresentative(graphrep.Query{Relevance: q.rel, Theta: q.theta, K: q.k})
						if err != nil {
							t.Fatalf("%s: %s: %v", cfg, q.desc, err)
						}
						if !sameResult(got, exact[i]) {
							t.Errorf("%s: %s:\n got %v gains %v covered %d\nwant %v gains %v covered %d",
								cfg, q.desc, got.Answer, got.Gains, got.Covered, exact[i].Answer, exact[i].Gains, exact[i].Covered)
						}
					}
					sess, err := engine.NewSession(walkRel)
					if err != nil {
						t.Fatal(err)
					}
					for _, theta := range walk {
						got, err := sess.TopK(theta, walkK)
						if err != nil {
							t.Fatal(err)
						}
						if want := exactWalk[theta]; !sameResult(got, want) {
							t.Errorf("%s: θ walk %s k=%d at θ=%.4g: got %v gains %v, want %v gains %v",
								cfg, walkDesc, walkK, theta, got.Answer, got.Gains, want.Answer, want.Gains)
						}
					}
					// Two goroutines share the session, walking θ in opposite
					// directions so their calls interleave at different θ.
					var wg sync.WaitGroup
					errs := make([]error, 2)
					for g := 0; g < 2; g++ {
						wg.Add(1)
						go func(g int) {
							defer wg.Done()
							for i := range walk {
								theta := walk[i]
								if g == 1 {
									theta = walk[len(walk)-1-i]
								}
								got, err := sess.TopK(theta, walkK)
								if err != nil {
									errs[g] = err
									return
								}
								if want := exactWalk[theta]; !sameResult(got, want) {
									errs[g] = fmt.Errorf("goroutine %d at θ=%.4g: got %v, want %v", g, theta, got.Answer, want.Answer)
									return
								}
							}
						}(g)
					}
					wg.Wait()
					for _, err := range errs {
						if err != nil {
							t.Errorf("%s: shared session: %v", cfg, err)
						}
					}
				}
			}
		}
	}
}
