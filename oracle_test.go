package graphrep_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
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
// 1/2/4 × Workers 1/GOMAXPROCS × bounded kernel on/off, plus the corpus
// reopened from a GRDB001 container — and checks:
//
//   - one-shot queries (a fresh session each) with random relevance, θ on,
//     between, below and past the grid points, and k in 1–8;
//   - one session reused over a ±10% θ walk, the interactive-refinement
//     pattern;
//   - two goroutines calling TopK on one shared session at once.
//
// Every answer must equal TopKRepresentativeExact's. A metric axis runs the
// same relevance functions under a custom metric, |a − b| over graph IDs,
// at 1, 2 and 4 shards: the pass's sketch filter bounds the star distance
// only, so it must not reach a metric supplied through Options.Metric.
func TestDifferentialOracle(t *testing.T) {
	workers := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		workers = append(workers, p)
	}
	idMetric := graphrep.MetricFunc(func(a, b graphrep.ID) float64 { return math.Abs(float64(a - b)) })
	idGrid := []float64{2, 5, 10, 30}
	rng := rand.New(rand.NewSource(14))
	for trial, name := range []string{"dud", "dblp", "amazon"} {
		n := 40 + rng.Intn(81)
		seed := rng.Int63n(1 << 20)
		db, err := graphrep.GenerateDataset(name, n, seed)
		if err != nil {
			t.Fatal(err)
		}
		mapped := reopenMapped(t, db)
		grid := oracleGrid(rng, db)
		var queries, idQueries []oracleQuery
		for i := 0; i < 5; i++ {
			rel, relDesc := oracleRelevance(rng, db)
			theta, where := oracleTheta(rng, grid)
			k := 1 + rng.Intn(8)
			queries = append(queries, oracleQuery{
				desc: fmt.Sprintf("%s θ=%.4g (%s grid %v) k=%d", relDesc, theta, where, grid, k),
				rel:  rel, theta: theta, k: k,
			})
			idTheta := idGrid[i%len(idGrid)]
			idQueries = append(idQueries, oracleQuery{
				desc: fmt.Sprintf("|a−b| metric, %s θ=%v k=%d", relDesc, idTheta, k),
				rel:  rel, theta: idTheta, k: k,
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

		// The reference answers, from an exact path; they depend on the
		// database and the metric only.
		exactOf := func(engine *graphrep.Engine, qs []oracleQuery) []*graphrep.Result {
			var out []*graphrep.Result
			for _, q := range qs {
				res, err := engine.TopKRepresentativeExact(graphrep.Query{Relevance: q.rel, Theta: q.theta, K: q.k})
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, res)
			}
			return out
		}
		checkQueries := func(cfg string, engine *graphrep.Engine, qs []oracleQuery, want []*graphrep.Result) {
			for i, q := range qs {
				got, err := engine.TopKRepresentative(graphrep.Query{Relevance: q.rel, Theta: q.theta, K: q.k})
				if err != nil {
					t.Fatalf("%s: %s: %v", cfg, q.desc, err)
				}
				if !sameResult(got, want[i]) {
					t.Errorf("%s: %s:\n got %v gains %v covered %d\nwant %v gains %v covered %d",
						cfg, q.desc, got.Answer, got.Gains, got.Covered, want[i].Answer, want[i].Gains, want[i].Covered)
				}
			}
		}
		var exact, idExact []*graphrep.Result
		exactWalk := make(map[float64]*graphrep.Result)
		for _, shards := range []int{1, 2, 4} {
			// Build once per shard count; the other worker, kernel and store
			// settings reopen the saved index, whose bytes none of them
			// changes.
			built, err := graphrep.Open(db, graphrep.Options{Seed: seed, Shards: shards, Workers: workers[0], ThetaGrid: grid})
			if err != nil {
				t.Fatal(err)
			}
			var index bytes.Buffer
			if err := built.SaveIndex(&index); err != nil {
				t.Fatal(err)
			}
			if exact == nil {
				exact = exactOf(built, queries)
				walkExact := exactOf(built, walkQueries(walkRel, walk, walkK))
				for i, theta := range walk {
					exactWalk[theta] = walkExact[i]
				}
			}
			type config struct {
				desc   string
				db     *graphrep.Database
				opts   graphrep.Options
				engine *graphrep.Engine
			}
			configs := []config{{desc: fmt.Sprintf("workers=%d kernelOff=false", workers[0]), engine: built}}
			for _, w := range workers {
				for _, kernelOff := range []bool{false, true} {
					if w != workers[0] || kernelOff {
						configs = append(configs, config{desc: fmt.Sprintf("workers=%d kernelOff=%v", w, kernelOff),
							db: db, opts: graphrep.Options{Workers: w, DisableBoundedKernel: kernelOff}})
					}
				}
			}
			configs = append(configs, config{desc: "GRDB001 store", db: mapped, opts: graphrep.Options{Workers: workers[0]}})
			for _, c := range configs {
				cfg := fmt.Sprintf("trial %d (%s n=%d seed=%d) shards=%d %s", trial, name, n, seed, shards, c.desc)
				engine := c.engine
				if engine == nil {
					engine, err = graphrep.OpenWithIndex(c.db, bytes.NewReader(index.Bytes()), c.opts)
					if err != nil {
						t.Fatalf("%s: %v", cfg, err)
					}
				}
				checkQueries(cfg, engine, queries, exact)
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

			// The metric axis: a custom metric's engine must answer with its
			// own exact greedy.
			idEngine, err := graphrep.Open(db, graphrep.Options{Seed: seed, Shards: shards, Workers: workers[0], ThetaGrid: idGrid, Metric: idMetric})
			if err != nil {
				t.Fatal(err)
			}
			if idExact == nil {
				idExact = exactOf(idEngine, idQueries)
			}
			checkQueries(fmt.Sprintf("trial %d (%s n=%d seed=%d) shards=%d custom metric", trial, name, n, seed, shards),
				idEngine, idQueries, idExact)
		}
	}
}

// walkQueries lists one query per θ of a refinement walk.
func walkQueries(rel graphrep.Relevance, walk []float64, k int) []oracleQuery {
	out := make([]oracleQuery, len(walk))
	for i, theta := range walk {
		out[i] = oracleQuery{rel: rel, theta: theta, k: k}
	}
	return out
}

// reopenMapped saves db as a GRDB001 container and reopens it, memory-mapped
// where the platform allows; the mapping is released when the test ends.
func reopenMapped(t *testing.T, db *graphrep.Database) *graphrep.Database {
	t.Helper()
	path := filepath.Join(t.TempDir(), "corpus.grdb")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graphrep.SaveDatabase(f, db); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	mapped, err := graphrep.OpenDatabaseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mapped.Close() })
	return mapped
}
