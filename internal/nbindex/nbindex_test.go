package nbindex

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"graphrep/internal/core"
	"graphrep/internal/ged"
	"graphrep/internal/graph"
	"graphrep/internal/metric"
	"graphrep/internal/vantage"
)

// clusteredDB builds a database with planted structural families so that
// representative queries have meaningful cluster structure: nFamilies
// scaffolds, each perturbed into members.
func clusteredDB(t testing.TB, nFamilies, perFamily int, seed int64) (*graph.Database, metric.Metric) {
	if t != nil {
		t.Helper()
	}
	rng := rand.New(rand.NewSource(seed))
	var graphs []*graph.Graph
	id := 0
	for f := 0; f < nFamilies; f++ {
		order := 6 + rng.Intn(5)
		base := graph.NewBuilder(order)
		for v := 0; v < order; v++ {
			base.AddVertex(graph.Label(rng.Intn(4)))
		}
		for v := 0; v+1 < order; v++ {
			base.AddEdge(v, v+1, 0)
		}
		for u := 0; u < order; u++ {
			for v := u + 2; v < order; v++ {
				if rng.Float64() < 0.15 {
					base.AddEdge(u, v, 0)
				}
			}
		}
		scaffold, err := base.Build(0)
		if err != nil {
			panic(err)
		}
		for p := 0; p < perFamily; p++ {
			b := scaffold.Clone(graph.ID(id))
			// Perturb: relabel one vertex.
			member, err := b.Build(graph.ID(id))
			if err != nil {
				panic(err)
			}
			// Rebuild with one random label flip for diversity.
			bb := graph.NewBuilder(member.Order())
			for v := 0; v < member.Order(); v++ {
				l := member.VertexLabel(v)
				if rng.Intn(member.Order()) == v {
					l = graph.Label(rng.Intn(4))
				}
				bb.AddVertex(l)
			}
			for _, e := range member.Edges() {
				bb.AddEdge(e.U, e.V, e.Label)
			}
			bb.SetFeatures([]float64{rng.Float64(), float64(f)})
			g, err := bb.Build(graph.ID(id))
			if err != nil {
				panic(err)
			}
			graphs = append(graphs, g)
			id++
		}
	}
	db, err := graph.NewDatabase(graphs)
	if err != nil {
		panic(err)
	}
	return db, metric.NewCache(metric.Star(db))
}

func buildIndex(t testing.TB, db *graph.Database, m metric.Metric, grid []float64, seed int64) *Index {
	if t != nil {
		t.Helper()
	}
	ix, err := Build(db, m, Options{NumVPs: 5, Branching: 4, ThetaGrid: grid}, rand.New(rand.NewSource(seed)))
	if err != nil {
		panic(err)
	}
	// The star metric's production configuration; the soak test below
	// builds without it and so covers the unfiltered pass.
	ix.UseSketchFilter()
	return ix
}

func TestBuildErrors(t *testing.T) {
	db, m := clusteredDB(t, 3, 5, 1)
	rng := rand.New(rand.NewSource(1))
	if _, err := Build(db, m, Options{NumVPs: 2, Branching: 2, ThetaGrid: nil}, rng); err == nil {
		t.Error("empty grid accepted")
	}
	if _, err := Build(db, m, Options{NumVPs: 2, Branching: 2, ThetaGrid: []float64{5, 3}}, rng); err == nil {
		t.Error("unsorted grid accepted")
	}
	if _, err := Build(db, m, Options{NumVPs: 0, Branching: 2, ThetaGrid: []float64{1}}, rng); err == nil {
		t.Error("NumVPs=0 accepted")
	}
	empty, _ := graph.NewDatabase(nil)
	if _, err := Build(empty, m, Options{NumVPs: 1, Branching: 2, ThetaGrid: []float64{1}}, rng); err == nil {
		t.Error("empty db accepted")
	}
}

// The central correctness property: the NB-Index greedy must return exactly
// the baseline greedy's answer (same picks, same order, same power) for any
// θ — both indexed and unindexed thresholds.
func TestTopKMatchesBaselineGreedy(t *testing.T) {
	db, m := clusteredDB(t, 5, 12, 4)
	ix := buildIndex(t, db, m, []float64{2, 4, 8, 16, 64}, 5)
	relevance := func(f []float64) bool { return f[0] > 0.3 }
	sess := ix.NewSession(relevance)
	for _, theta := range []float64{0, 1, 3, 4, 6.5, 10, 20, 100} {
		for _, k := range []int{1, 3, 10} {
			q := core.Query{Relevance: relevance, Theta: theta, K: k}
			want, err := core.BaselineGreedy(db, m, q)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			got, err := sess.TopK(theta, k)
			if err != nil {
				t.Fatalf("TopK(θ=%v,k=%d): %v", theta, k, err)
			}
			if !reflect.DeepEqual(got.Answer, want.Answer) {
				t.Fatalf("θ=%v k=%d: answer %v, want %v", theta, k, got.Answer, want.Answer)
			}
			if math.Abs(got.Power-want.Power) > 1e-12 || got.Covered != want.Covered {
				t.Fatalf("θ=%v k=%d: power %v/%d, want %v/%d", theta, k, got.Power, got.Covered, want.Power, want.Covered)
			}
			if !reflect.DeepEqual(got.Gains, want.Gains) {
				t.Fatalf("θ=%v k=%d: gains %v, want %v", theta, k, got.Gains, want.Gains)
			}
		}
	}
}

func TestTopKEmptyRelevantSet(t *testing.T) {
	db, m := clusteredDB(t, 2, 5, 6)
	ix := buildIndex(t, db, m, []float64{4}, 7)
	sess := ix.NewSession(func([]float64) bool { return false })
	res, err := sess.TopK(4, 5)
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	if len(res.Answer) != 0 || res.Power != 0 {
		t.Errorf("res = %+v", res)
	}
}

func TestTopKArgErrors(t *testing.T) {
	db, m := clusteredDB(t, 2, 5, 8)
	ix := buildIndex(t, db, m, []float64{4}, 9)
	sess := ix.NewSession(func([]float64) bool { return true })
	if _, err := sess.TopK(-1, 3); err == nil {
		t.Error("negative θ accepted")
	}
	if _, err := sess.TopK(3, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

// Refinement: repeated TopK calls on one session at different θ must agree
// with fresh baseline runs — the session state must not leak across calls.
func TestRefinementReusesSessionCorrectly(t *testing.T) {
	db, m := clusteredDB(t, 4, 10, 10)
	ix := buildIndex(t, db, m, []float64{2, 4, 8, 16, 64}, 11)
	relevance := func(f []float64) bool { return f[0] > 0.2 }
	sess := ix.NewSession(relevance)
	thetas := []float64{6, 5.4, 6.6, 4.9, 7.3, 6, 6} // zoom in/out pattern incl. repeats
	for _, theta := range thetas {
		want, err := core.BaselineGreedy(db, m, core.Query{Relevance: relevance, Theta: theta, K: 5})
		if err != nil {
			t.Fatal(err)
		}
		got, err := sess.TopK(theta, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Answer, want.Answer) {
			t.Fatalf("θ=%v: answer %v, want %v", theta, got.Answer, want.Answer)
		}
	}
}

// The index must issue far fewer exact distance computations than the
// quadratic baseline — the whole point of the paper.
func TestIndexSavesDistanceComputations(t *testing.T) {
	db, _ := clusteredDB(t, 6, 15, 12)
	base := metric.Star(db)
	relevance := func(f []float64) bool { return f[0] > 0.25 }
	theta := 4.0

	counterBase := metric.NewCounter(base)
	if _, err := core.BaselineGreedy(db, counterBase, core.Query{Relevance: relevance, Theta: theta, K: 10}); err != nil {
		t.Fatal(err)
	}

	counterIx := metric.NewCounter(base)
	cached := metric.NewCache(counterIx)
	ix := buildIndex(t, db, cached, []float64{2, 4, 8, 16, 64}, 13)
	buildCost := counterIx.Count()
	sess := ix.NewSession(relevance)
	if _, err := sess.TopK(theta, 10); err != nil {
		t.Fatal(err)
	}
	queryCost := counterIx.Count() - buildCost
	if queryCost >= counterBase.Count() {
		t.Errorf("index query used %d distances, baseline %d; expected savings", queryCost, counterBase.Count())
	}
	st := sess.LastStats()
	if st.VerifiedLeaves == 0 || st.PQPops == 0 {
		t.Errorf("stats not recorded: %+v", st)
	}
}

// The vantage pass supplies every query's leaf bounds and first
// verifications. Each relevant graph's list must be exactly the brute-force
// candidate set — the members of L_q within θ of the graph in every vantage
// space v ≥ 1, the first space bounded by the binary-searched window
// q[0]−θ ≤ d ≤ q[0]+θ, and, when the parts carry sketch rows, whose sketch
// passes ged.SketchWithin against the graph's own — in first-space order,
// views in order. Without sketch rows (a custom metric) the list is the
// vantage rule alone. That must hold for one view and for 2- and 4-shard
// views of the same database, and for any worker count. Each list's length
// must be ≥ the graph's exact |N_θ(g) ∩ L_q| (Theorem 5 and the sketch's
// admissibility). θ runs below, on, between and above the grid.
func TestCandidateListsMatchBruteForce(t *testing.T) {
	db, m := clusteredDB(t, 4, 8, 14)
	grid := []float64{2, 4, 8, 16, 64}
	vps, err := vantage.SelectVPs(db, m, 5, vantage.SelectRandom, rand.New(rand.NewSource(15)))
	if err != nil {
		t.Fatal(err)
	}
	rel := core.Relevant(db, func(f []float64) bool { return f[0] > 0.3 })
	key := make(map[graph.ID]int32, len(rel))
	for k, id := range rel {
		key[id] = int32(k)
	}
	sketches := make([][]uint16, db.Len())
	for i := range sketches {
		sketches[i] = ged.NewEmbedding(db.Graph(graph.ID(i))).AppendSketch(nil)
	}
	ctx := context.Background()
	sketchDropped := 0
	for _, shards := range []int{1, 2, 4} {
		per := (db.Len() + shards - 1) / shards
		var orders []*vantage.Ordering
		var plain, sketched []*vantage.Subset
		for base := 0; base < db.Len(); base += per {
			part, err := BuildPartContext(ctx, db, m, vps, grid, graph.ID(base), min(per, db.Len()-base), 4, 1,
				rand.New(rand.NewSource(int64(16+base))))
			if err != nil {
				t.Fatal(err)
			}
			orders = append(orders, part.VO())
			plain = append(plain, part.VO().Subset(rel, nil))
			sketched = append(sketched, part.VO().Subset(rel, part.sketch))
		}
		home := func(pos int32) int { return int(rel[pos]) / per }
		for _, theta := range []float64{0, 1, 2, 5.5, 8, 64, 100} {
			for _, views := range [][]*vantage.Subset{plain, sketched} {
				withSketch := views[0] == sketched[0]
				lists, err := candidateLists(ctx, views, len(rel), theta, 1)
				if err != nil {
					t.Fatal(err)
				}
				parallel, err := candidateLists(ctx, views, len(rel), theta, 4)
				if err != nil {
					t.Fatal(err)
				}
				for pos, id := range rel {
					cfg := fmt.Sprintf("%d shards, sketch=%v, θ=%v, graph %d", shards, withSketch, theta, id)
					if !slices.Equal(parallel[pos], lists[pos]) {
						t.Fatalf("%s: 4 workers listed %v, 1 worker %v", cfg, parallel[pos], lists[pos])
					}
					q := make([]float64, len(vps))
					for v := range q {
						q[v] = orders[home(int32(pos))].VPDistance(v, id)
					}
					var want []int32
					for _, o := range orders {
						for _, c := range o.ByDistRow(0) {
							k, ok := key[c]
							if !ok {
								continue
							}
							d0 := o.VPDistance(0, c)
							in := d0 >= q[0]-theta && d0 <= q[0]+theta
							for v := 1; v < len(q) && in; v++ {
								in = math.Abs(o.VPDistance(v, c)-q[v]) <= theta
							}
							if in && withSketch {
								in = ged.SketchWithin(sketches[c], sketches[id], ged.SketchLimit(theta))
								if !in {
									sketchDropped++
								}
							}
							if in {
								want = append(want, k)
							}
						}
					}
					if !slices.Equal(lists[pos], want) {
						t.Fatalf("%s: list %v, want %v", cfg, lists[pos], want)
					}
					exact := 0
					for _, other := range rel {
						if m.Distance(id, other) <= theta {
							exact++
						}
					}
					if len(lists[pos]) < exact {
						t.Fatalf("%s: bound %d < true %d", cfg, len(lists[pos]), exact)
					}
				}
			}
		}
	}
	if sketchDropped == 0 {
		t.Fatal("the sketch test never dropped a vantage candidate; the sketched lists went unexercised")
	}
	t.Logf("the sketch test dropped %d vantage candidates", sketchDropped)
}

// TestCELFBoundsAdmissible checks the invariant the lazy bounds rest on: at
// every greedy pick of randomized queries, over one part and over a forest
// of four, each unpicked relevant leaf's current bound is ≥ its exact
// marginal gain, computed by brute force over the uncovered relevant set.
// The test drives the call's picks itself; its answers and work must equal
// the search's.
func TestCELFBoundsAdmissible(t *testing.T) {
	db, m := clusteredDB(t, 5, 10, 91)
	grid := []float64{2, 4, 8, 16, 64}
	rng := rand.New(rand.NewSource(92))
	vps, err := vantage.SelectVPs(db, m, 5, vantage.SelectRandom, rng)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, nparts := range []int{1, 4} {
		per := (db.Len() + nparts - 1) / nparts
		var parts []*Index
		for base := 0; base < db.Len(); base += per {
			part, err := BuildPartContext(ctx, db, m, vps, grid, graph.ID(base), min(per, db.Len()-base), 3, 1,
				rand.New(rand.NewSource(int64(93+base))))
			if err != nil {
				t.Fatal(err)
			}
			part.UseSketchFilter()
			parts = append(parts, part)
		}
		for trial := 0; trial < 8; trial++ {
			cut, theta, k := rng.Float64()*0.6, 1+rng.Float64()*12, 1+rng.Intn(8)
			rs, err := newRelSet(ctx, db, func(f []float64) bool { return f[0] > cut })
			if err != nil {
				t.Fatal(err)
			}
			cfg := fmt.Sprintf("%d parts, cut %.3f, θ=%.3f, k=%d", nparts, cut, theta, k)
			var st QueryStats
			c, err := newCall(ctx, parts, rs, theta, &st)
			if err != nil {
				t.Fatal(err)
			}
			picked := make([]bool, len(rs.ids))
			var answer []graph.ID
			for pick := 0; ; pick++ {
				for pos, id := range rs.ids {
					if picked[pos] {
						continue
					}
					gain := int32(0)
					for q, other := range rs.ids {
						if !c.covered.Contains(q) && m.Distance(id, other) <= theta {
							gain++
						}
					}
					p := 0
					for p+1 < len(parts) && parts[p+1].base <= id {
						p++
					}
					if b := c.bound[p][parts[p].leafOf[id-parts[p].base]]; b < gain {
						t.Fatalf("%s, pick %d: graph %d has bound %d < exact gain %d", cfg, pick, id, b, gain)
					}
				}
				if pick == k {
					break
				}
				best, pos, nbrs, err := c.pick(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if pos < 0 {
					break
				}
				c.setBound(best, -1)
				picked[pos] = true
				answer = append(answer, rs.ids[pos])
				for _, q := range nbrs {
					c.covered.Add(int(q))
				}
			}
			var st2 QueryStats
			res, err := search(ctx, parts, rs, theta, k, &st2)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(answer, res.Answer) || st != st2 {
				t.Fatalf("%s: driven picks %v (%+v), search %v (%+v)", cfg, answer, st, res.Answer, st2)
			}
		}
	}
}

// Soak test: randomized cross-engine equivalence across many configurations.
// Every (database, grid, VP count, branching, θ, k) combination must produce
// the exact baseline-greedy answer through the index.
func TestCrossEngineEquivalenceSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 12; trial++ {
		db, m := clusteredDB(t, 2+rng.Intn(5), 3+rng.Intn(12), int64(700+trial))
		gridSize := 1 + rng.Intn(5)
		grid := make([]float64, 0, gridSize)
		v := 1 + rng.Float64()*3
		for len(grid) < gridSize {
			grid = append(grid, v)
			v *= 1.5 + rng.Float64()*2
		}
		ix, err := Build(db, m, Options{
			NumVPs:    1 + rng.Intn(7),
			Branching: 2 + rng.Intn(6),
			ThetaGrid: grid,
		}, rand.New(rand.NewSource(int64(800+trial))))
		if err != nil {
			t.Fatalf("trial %d: Build: %v", trial, err)
		}
		cut := rng.Float64() * 0.8
		relevance := func(f []float64) bool { return f[0] > cut }
		sess := ix.NewSession(relevance)
		for q := 0; q < 4; q++ {
			theta := rng.Float64() * grid[len(grid)-1] * 1.5
			k := 1 + rng.Intn(12)
			want, err := core.BaselineGreedy(db, m, core.Query{Relevance: relevance, Theta: theta, K: k})
			if err != nil {
				t.Fatal(err)
			}
			got, err := sess.TopK(theta, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Answer, want.Answer) {
				t.Fatalf("trial %d θ=%v k=%d: %v, want %v", trial, theta, k, got.Answer, want.Answer)
			}
		}
	}
}

// An Index is immutable after Build: concurrent sessions (each with its own
// working state) must produce the same answers as sequential ones.
func TestConcurrentSessions(t *testing.T) {
	db, m := clusteredDB(t, 4, 10, 90)
	ix := buildIndex(t, db, m, []float64{2, 4, 8, 16, 64}, 91)
	relevance := func(f []float64) bool { return f[0] > 0.3 }
	want, err := ix.NewSession(relevance).TopK(5, 6)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func() {
			for i := 0; i < 5; i++ {
				got, err := ix.NewSession(relevance).TopK(5, 6)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got.Answer, want.Answer) {
					errs <- fmt.Errorf("concurrent session answered %v, want %v", got.Answer, want.Answer)
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < 8; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestChooseGrid(t *testing.T) {
	db, m := clusteredDB(t, 5, 8, 16)
	rng := rand.New(rand.NewSource(17))
	grid := ChooseGrid(db, m, 8, 300, rng)
	if len(grid) == 0 {
		t.Fatal("empty grid")
	}
	if !sort.Float64sAreSorted(grid) {
		t.Fatalf("grid unsorted: %v", grid)
	}
	for i := 1; i < len(grid); i++ {
		if grid[i] == grid[i-1] {
			t.Fatalf("duplicate grid values: %v", grid)
		}
	}
	// Degenerate inputs.
	if g := ChooseGrid(db, m, 0, 10, rng); g != nil {
		t.Errorf("gridSize=0 returned %v", g)
	}
	single, _ := graph.NewDatabase(nil)
	if g := ChooseGrid(single, m, 4, 10, rng); g != nil {
		t.Errorf("tiny db returned %v", g)
	}
}

func TestAccessorsAndFootprint(t *testing.T) {
	db, m := clusteredDB(t, 3, 6, 18)
	grid := []float64{2, 8}
	ix := buildIndex(t, db, m, grid, 19)
	if ix.Tree() == nil || ix.VO() == nil {
		t.Fatal("nil components")
	}
	if !reflect.DeepEqual(ix.Grid(), grid) {
		t.Errorf("Grid = %v", ix.Grid())
	}
	if ix.Bytes() <= 0 {
		t.Error("Bytes <= 0")
	}
	sess := ix.NewSession(func([]float64) bool { return true })
	if sess.RelevantCount() != db.Len() {
		t.Errorf("RelevantCount = %d", sess.RelevantCount())
	}
}

// VP count ablation: a session built over an index with more VPs must not
// verify more candidate distances (tighter N̂).
func TestMoreVPsNeverHurtCandidateCounts(t *testing.T) {
	db, base := clusteredDB(t, 5, 10, 20)
	relevance := func(f []float64) bool { return f[0] > 0.25 }
	run := func(numVPs int) int {
		m := metric.NewCache(base)
		ix, err := Build(db, m, Options{NumVPs: numVPs, VPPolicy: vantage.SelectMaxMin, Branching: 4, ThetaGrid: []float64{2, 4, 8, 16, 64}}, rand.New(rand.NewSource(21)))
		if err != nil {
			t.Fatal(err)
		}
		sess := ix.NewSession(relevance)
		if _, err := sess.TopK(4, 8); err != nil {
			t.Fatal(err)
		}
		return sess.LastStats().CandidateScans
	}
	few, many := run(1), run(8)
	if many > few {
		t.Errorf("8 VPs scanned %d candidates, 1 VP scanned %d", many, few)
	}
}
