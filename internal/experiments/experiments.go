// Package experiments regenerates every table and figure of the paper's
// evaluation (§8) on the synthetic stand-in datasets. Each experiment is a
// named, self-contained harness that sweeps the same parameter the paper
// sweeps, runs the same engines the paper compares (NB-Index, the simple
// greedy, C-tree- and M-tree-backed greedy, DIV, DisC, and the precomputed
// distance matrix), and prints the same rows/series the paper reports.
//
// Absolute numbers differ from the paper — the substrate is a synthetic
// generator and a different machine — but the shapes the paper claims (who
// wins, by roughly what factor, where the crossovers fall) are what these
// harnesses reproduce; EXPERIMENTS.md records the comparison.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"graphrep/internal/core"
	"graphrep/internal/ctree"
	"graphrep/internal/dataset"
	"graphrep/internal/graph"
	"graphrep/internal/metric"
	"graphrep/internal/mtree"
	"graphrep/internal/nbindex"
	"graphrep/internal/stats"
)

// Scale sizes an experiment run. The Small scale keeps every experiment
// laptop-fast for `go test -bench`; Paper approaches the paper's dataset
// sizes and is reached through cmd/repbench.
type Scale struct {
	Name    string
	N       int   // primary dataset size
	SweepN  []int // dataset-size sweeps
	Ks      []int // k sweeps (Table 4, Fig. 6(e-g))
	Samples int   // sampled pairs for distance distributions
	NumVPs  int   // vantage points
	Refines int   // refinement rounds (Fig. 6(i))
}

// Predefined scales.
var (
	Small  = Scale{Name: "small", N: 240, SweepN: []int{80, 160, 240}, Ks: []int{5, 10, 20}, Samples: 2000, NumVPs: 6, Refines: 6}
	Medium = Scale{Name: "medium", N: 1000, SweepN: []int{250, 500, 1000}, Ks: []int{10, 25, 50}, Samples: 8000, NumVPs: 20, Refines: 10}
	Paper  = Scale{Name: "paper", N: 25000, SweepN: []int{5000, 10000, 25000}, Ks: []int{10, 25, 50, 100}, Samples: 50000, NumVPs: 100, Refines: 20}
)

// ScaleByName resolves a scale name.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "small":
		return Small, nil
	case "medium":
		return Medium, nil
	case "paper":
		return Paper, nil
	}
	return Scale{}, fmt.Errorf("experiments: unknown scale %q", name)
}

// Experiment regenerates one paper artifact.
type Experiment struct {
	ID    string // e.g. "table4", "fig5ik"
	Title string // the paper artifact it regenerates
	Run   func(w io.Writer, s Scale) error
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig2a", "Fig. 2(a): DisC answer-set growth vs relevant count", RunFig2a},
		{"fig2b", "Fig. 2(b): simple-greedy running time vs database size", RunFig2b},
		{"table4", "Table 4: compression ratio and π(A) for REP vs DIV vs DisC", RunTable4},
		{"fig5ab", "Fig. 5(a-b): cumulative distance distributions", RunFig5Distances},
		{"fig5fh", "Fig. 5(f-h): observed FPR vs theoretical bound vs θ", RunFig5FPR},
		{"fig5ik", "Fig. 5(i-k): query time vs θ across engines", RunFig5QueryTime},
		{"fig5l", "Fig. 5(l)/6(a): cost vs gap to nearest indexed threshold", RunFig5lThresholdGap},
		{"fig6bd", "Fig. 6(b-d): query time vs dataset size", RunFig6SizeScaling},
		{"fig6eg", "Fig. 6(e-g): query time vs k", RunFig6KScaling},
		{"fig6h", "Fig. 6(h): query time vs feature dimensions", RunFig6hDimensions},
		{"fig6i", "Fig. 6(i): interactive θ refinement", RunFig6iRefinement},
		{"fig6j", "Fig. 6(j): refinement time vs dataset size", RunFig6jRefinementScaling},
		{"fig6k", "Fig. 6(k): index construction time vs dataset size", RunFig6kConstruction},
		{"fig6l", "Fig. 6(l): index memory footprint vs dataset size", RunFig6lFootprint},
		{"fig7", "Fig. 7: traditional vs representative answer sets", RunFig7Qualitative},
		{"ext-ablation", "extension: NB-Index design-choice ablations", RunExtAblation},
		{"ext-approx", "extension: greedy vs optimal (1-1/e) check", RunExtApprox},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Fixture bundles one dataset with its metric stack, default query
// parameters, and lazily built index structures. The distance cache below
// the counter plays the role of the neighborhoods an engine stores once
// computed; the counter therefore counts *distinct* expensive distance
// computations, the paper's real cost measure.
type Fixture struct {
	Name  string
	DB    *graph.Database
	Base  metric.Metric   // uncached star metric
	Count *metric.Counter // counts every non-memoized computation
	M     metric.Metric   // Cache(Count(Base)): what engines consume

	Theta float64   // default θ (§8.2.1 analogue, per dataset)
	Grid  []float64 // indexed thresholds (§8.2.2 analogue)
	Rel   core.Relevance
	Seed  int64

	cache *metric.Cache

	nb  *nbindex.Index
	ct  *ctree.Tree
	mt  *mtree.Tree
	mat *metric.Matrix
}

// NewFixture builds a fixture for the named dataset preset at size n.
func NewFixture(name string, n int, s Scale, seed int64) (*Fixture, error) {
	db, err := dataset.ByName(name, n, seed)
	if err != nil {
		return nil, err
	}
	fx := &Fixture{Name: name, DB: db, Seed: seed}
	fx.Base = metric.Star(db)
	fx.Count = metric.NewCounter(fx.Base)
	fx.cache = metric.NewCache(fx.Count)
	fx.M = fx.cache
	rng := rand.New(rand.NewSource(seed + 1))
	// Default θ: a low quantile of the pairwise distance distribution, the
	// analogue of the paper's θ=10 (DUD/DBLP) and θ=75 (Amazon) choices,
	// which sit at the onset of the steep CDF region.
	sample := fx.sampleDistances(minInt(s.Samples, 4000), rng)
	fx.Theta = stats.Quantile(sample, 0.06)
	if fx.Theta <= 0 {
		fx.Theta = 1
	}
	fx.Grid = nbindex.ChooseGrid(db, fx.M, 10, minInt(s.Samples, 3000), rng)
	// Ensure the default θ region is representable.
	fx.Grid = insertSorted(fx.Grid, fx.Theta*2)
	fx.Rel = core.FirstQuartileRelevance(db, nil)
	return fx, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func insertSorted(grid []float64, v float64) []float64 {
	i := sort.SearchFloat64s(grid, v)
	if i < len(grid) && grid[i] == v {
		return grid
	}
	grid = append(grid, 0)
	copy(grid[i+1:], grid[i:])
	grid[i] = v
	return grid
}

// ResetDistances clears the memoized distance cache so the next measured
// phase pays for its own computations.
func (fx *Fixture) ResetDistances() { fx.cache.Clear() }

// sampleDistances draws pairwise distances without disturbing the counter
// (it reads through the cache so later phases may reuse them, as a real
// deployment would).
func (fx *Fixture) sampleDistances(pairs int, rng *rand.Rand) []float64 {
	out := make([]float64, 0, pairs)
	n := fx.DB.Len()
	for i := 0; i < pairs; i++ {
		a, b := graph.ID(rng.Intn(n)), graph.ID(rng.Intn(n))
		if a == b {
			continue
		}
		out = append(out, fx.M.Distance(a, b))
	}
	return out
}

// NBIndex lazily builds (and memoizes) the NB-Index.
func (fx *Fixture) NBIndex(s Scale) (*nbindex.Index, error) {
	if fx.nb == nil {
		ix, err := nbindex.Build(fx.DB, fx.M, nbindex.Options{
			NumVPs:    s.NumVPs,
			ThetaGrid: fx.Grid,
		}, rand.New(rand.NewSource(fx.Seed+2)))
		if err != nil {
			return nil, err
		}
		fx.nb = ix
	}
	return fx.nb, nil
}

// CTree lazily builds the closure-tree baseline index.
func (fx *Fixture) CTree() (*ctree.Tree, error) {
	if fx.ct == nil {
		t, err := ctree.Build(fx.DB, fx.M, ctree.DefaultOptions(), rand.New(rand.NewSource(fx.Seed+3)))
		if err != nil {
			return nil, err
		}
		fx.ct = t
	}
	return fx.ct, nil
}

// MTree lazily builds the M-tree baseline index.
func (fx *Fixture) MTree() (*mtree.Tree, error) {
	if fx.mt == nil {
		t, err := mtree.Build(fx.DB, fx.M, mtree.DefaultOptions(), rand.New(rand.NewSource(fx.Seed+4)))
		if err != nil {
			return nil, err
		}
		fx.mt = t
	}
	return fx.mt, nil
}

// Matrix lazily precomputes the full distance matrix (the paper's best-case
// comparison in Fig. 5(i) inset and Fig. 6(k)).
func (fx *Fixture) Matrix() *metric.Matrix {
	if fx.mat == nil {
		fx.mat = metric.NewMatrix(fx.DB, fx.M, 4)
	}
	return fx.mat
}

// RunResult is one measured engine run.
type RunResult struct {
	Engine    string
	Answer    []graph.ID
	Power     float64
	Covered   int
	Relevant  int
	Duration  time.Duration
	Distances int64 // distinct distance computations during the run
}

// CR is the compression ratio |N_θ(A)|/|A|.
func (r RunResult) CR() float64 {
	if len(r.Answer) == 0 {
		return 0
	}
	return float64(r.Covered) / float64(len(r.Answer))
}

// measure wraps an engine invocation with wall-clock and distance
// accounting. The shared memo cache is cleared first, so every measured run
// pays for its own distance computations — one engine's earlier work cannot
// subsidize another's (index-internal state such as stored pivot distances
// legitimately persists; only the raw pair memo is dropped).
func (fx *Fixture) measure(engine string, run func() (*core.Result, error)) (RunResult, error) {
	fx.cache.Clear()
	before := fx.Count.Count()
	start := time.Now()
	res, err := run()
	if err != nil {
		return RunResult{}, fmt.Errorf("%s: %w", engine, err)
	}
	return RunResult{
		Engine:    engine,
		Answer:    res.Answer,
		Power:     res.Power,
		Covered:   res.Covered,
		Relevant:  res.Relevant,
		Duration:  time.Since(start),
		Distances: fx.Count.Count() - before,
	}, nil
}

// RunNBIndex measures the NB-Index engine end to end: session
// initialization (the online phase the paper includes in query time) plus
// the search-and-update phase.
func (fx *Fixture) RunNBIndex(s Scale, theta float64, k int) (RunResult, error) {
	ix, err := fx.NBIndex(s)
	if err != nil {
		return RunResult{}, err
	}
	return fx.measure("nbindex", func() (*core.Result, error) {
		sess := ix.NewSession(fx.Rel)
		return sess.TopK(theta, k)
	})
}

// RunBaseline measures the simple greedy (Alg. 1, quadratic initialization).
func (fx *Fixture) RunBaseline(theta float64, k int) (RunResult, error) {
	return fx.measure("baseline", func() (*core.Result, error) {
		return core.BaselineGreedy(fx.DB, fx.M, core.Query{Relevance: fx.Rel, Theta: theta, K: k})
	})
}

// RunMatrixGreedy measures the greedy against the precomputed distance
// matrix (matrix construction excluded, as in the paper's comparison).
func (fx *Fixture) RunMatrixGreedy(theta float64, k int) (RunResult, error) {
	mat := fx.Matrix()
	return fx.measure("matrix", func() (*core.Result, error) {
		return core.BaselineGreedy(fx.DB, mat, core.Query{Relevance: fx.Rel, Theta: theta, K: k})
	})
}

// RunCTreeGreedy measures the greedy with C-tree range queries.
func (fx *Fixture) RunCTreeGreedy(theta float64, k int) (RunResult, error) {
	t, err := fx.CTree()
	if err != nil {
		return RunResult{}, err
	}
	return fx.measure("ctree", func() (*core.Result, error) {
		return core.RangeGreedy(fx.DB, t, core.Query{Relevance: fx.Rel, Theta: theta, K: k})
	})
}

// RunMTreeGreedy measures the greedy with M-tree range queries.
func (fx *Fixture) RunMTreeGreedy(theta float64, k int) (RunResult, error) {
	t, err := fx.MTree()
	if err != nil {
		return RunResult{}, err
	}
	return fx.measure("mtree", func() (*core.Result, error) {
		return core.RangeGreedy(fx.DB, t, core.Query{Relevance: fx.Rel, Theta: theta, K: k})
	})
}

// header prints an experiment banner.
func header(w io.Writer, title string, fx *Fixture, s Scale) {
	fmt.Fprintf(w, "== %s ==\n", title)
	if fx != nil {
		st := fx.DB.Stats()
		fmt.Fprintf(w, "dataset=%s n=%d avg|V|=%.1f avg|E|=%.1f θ=%.2f scale=%s\n",
			fx.Name, st.Graphs, st.AvgNodes, st.AvgEdges, fx.Theta, s.Name)
	}
}

// ms renders a duration in milliseconds.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
