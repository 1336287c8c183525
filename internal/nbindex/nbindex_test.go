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
	"graphrep/internal/dataset"
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
	ix, err := Build(db, m, Options{NumVPs: 5, ThetaGrid: grid}, rand.New(rand.NewSource(seed)))
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
	if _, err := Build(db, m, Options{NumVPs: 2, ThetaGrid: nil}, rng); err == nil {
		t.Error("empty grid accepted")
	}
	if _, err := Build(db, m, Options{NumVPs: 2, ThetaGrid: []float64{5, 3}}, rng); err == nil {
		t.Error("unsorted grid accepted")
	}
	if _, err := Build(db, m, Options{NumVPs: 0, ThetaGrid: []float64{1}}, rng); err == nil {
		t.Error("NumVPs=0 accepted")
	}
	empty, _ := graph.NewDatabase(nil)
	if _, err := Build(empty, m, Options{NumVPs: 1, ThetaGrid: []float64{1}}, rng); err == nil {
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
// admissibility), and the pass's pair count must equal the brute-force count
// of pairs with either graph in the other's window, for every view split.
//
// Two metric axes run. Under the star metric θ runs below, on, between and
// above the grid. Its distances are integers, so the two windows of a pair
// never disagree. The line axis places graph i at 1 + i/40, computed as a
// quotient for even i and as the product i·0.025 for odd i, and measures
// |x_a − x_b|: non-integer distances, and an exact metric on those doubles,
// since subtraction within [1, 2) is exact. Its θ runs over every distance
// and one ulp to either side, on three VPs and without sketches (they bound
// the star distance only). There rounding lets b ≤ fl(a+θ) and fl(b−θ) ≤ a
// disagree, and the test requires at least one list entry that only its own
// graph's window admits.
func TestCandidateListsMatchBruteForce(t *testing.T) {
	db, star := clusteredDB(t, 4, 8, 14)
	coord := make([]float64, db.Len())
	for i := range coord {
		coord[i] = 1 + float64(i)/40
		if i%2 == 1 {
			coord[i] = 1 + float64(i)*0.025
		}
	}
	line := metric.Func(func(a, b graph.ID) float64 { return math.Abs(coord[a] - coord[b]) })
	rel := core.Relevant(db, func(f []float64) bool { return f[0] > 0.3 })
	key := make(map[graph.ID]int32, len(rel))
	for k, id := range rel {
		key[id] = int32(k)
	}
	var lineThetas []float64
	for _, a := range rel {
		for _, b := range rel {
			if d := line(a, b); d > 0 {
				lineThetas = append(lineThetas, math.Nextafter(d, 0), d, math.Nextafter(d, 2))
			}
		}
	}
	slices.Sort(lineThetas)
	lineThetas = slices.Compact(lineThetas)
	embs := make([]*ged.Embedding, db.Len())
	for i := range embs {
		embs[i] = ged.NewEmbedding(db.Graph(graph.ID(i)))
	}
	tab, err := ged.NewTableFromEmbeddings(embs)
	if err != nil {
		t.Fatal(err)
	}
	sketches := make([][]uint16, db.Len())
	for i := range sketches {
		sketches[i] = tab.AppendSketch(i, nil)
	}
	ctx := context.Background()
	sketchDropped, oneWay := 0, 0
	for _, axis := range []struct {
		name   string
		m      metric.Metric
		numVPs int
		thetas []float64
		sketch bool
	}{
		{"star", star, 5, []float64{0, 1, 2, 5.5, 8, 64, 100}, true},
		{"line", line, 3, lineThetas, false},
	} {
		vps, err := vantage.SelectVPs(db, axis.m, axis.numVPs, vantage.SelectRandom, rand.New(rand.NewSource(15)))
		if err != nil {
			t.Fatal(err)
		}
		pairsAt := make(map[float64]int)
		for _, shards := range []int{1, 2, 4} {
			per := (db.Len() + shards - 1) / shards
			var orders []*vantage.Ordering
			var plain, sketched []*vantage.Subset
			for base := 0; base < db.Len(); base += per {
				part, err := BuildPartContext(ctx, db, axis.m, vps, []float64{2, 4, 8, 16, 64}, graph.ID(base), min(per, db.Len()-base), 1)
				if err != nil {
					t.Fatal(err)
				}
				orders = append(orders, part.VO())
				plain = append(plain, part.VO().Subset(rel, nil))
				sketched = append(sketched, part.VO().Subset(rel, part.sketch))
			}
			viewSets := [][]*vantage.Subset{plain}
			if axis.sketch {
				viewSets = append(viewSets, sketched)
			}
			first := func(id graph.ID) float64 { return orders[int(id)/per].VPDistance(0, id) }
			// inWindow reports whether b's first coordinate lies in a's window.
			inWindow := func(a, b graph.ID, theta float64) bool {
				return first(b) >= first(a)-theta && first(b) <= first(a)+theta
			}
			for _, theta := range axis.thetas {
				wantPairs := 0
				for i, a := range rel {
					for _, b := range rel[i+1:] {
						if inWindow(a, b, theta) || inWindow(b, a, theta) {
							wantPairs++
						}
					}
				}
				if shards == 1 {
					pairsAt[theta] = wantPairs
				}
				for _, views := range viewSets {
					withSketch := views[0] == sketched[0]
					lists, pairs, err := candidateLists(ctx, views, len(rel), theta, 1)
					if err != nil {
						t.Fatal(err)
					}
					parallel, parallelPairs, err := candidateLists(ctx, views, len(rel), theta, 4)
					if err != nil {
						t.Fatal(err)
					}
					if pairs != wantPairs || parallelPairs != wantPairs || pairs != pairsAt[theta] {
						t.Fatalf("%s axis, %d shards, sketch=%v, θ=%v: the pass tested %d pairs (%d at 4 workers), want %d (%d at one shard)",
							axis.name, shards, withSketch, theta, pairs, parallelPairs, wantPairs, pairsAt[theta])
					}
					for pos, id := range rel {
						cfg := fmt.Sprintf("%s axis, %d shards, sketch=%v, θ=%v, graph %d", axis.name, shards, withSketch, theta, id)
						if !slices.Equal(parallel[pos], lists[pos]) {
							t.Fatalf("%s: 4 workers listed %v, 1 worker %v", cfg, parallel[pos], lists[pos])
						}
						home := orders[int(id)/per]
						q := make([]float64, len(vps))
						for v := range q {
							q[v] = home.VPDistance(v, id)
						}
						var want []int32
						for _, o := range orders {
							for _, c := range o.Order() {
								k, ok := key[c]
								if !ok {
									continue
								}
								in := inWindow(id, c, theta)
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
									if axis.name == "line" && !inWindow(c, id, theta) {
										oneWay++
									}
								}
							}
						}
						if !slices.Equal(lists[pos], want) {
							t.Fatalf("%s: list %v, want %v", cfg, lists[pos], want)
						}
						exact := 0
						for _, other := range rel {
							if axis.m.Distance(id, other) <= theta {
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
	}
	if sketchDropped == 0 {
		t.Fatal("the sketch test never dropped a vantage candidate; the sketched lists went unexercised")
	}
	if oneWay == 0 {
		t.Fatal("no list entry was admitted by one direction's window only; the float window edge went unexercised")
	}
	t.Logf("the sketch test dropped %d vantage candidates; %d line-axis entries were admitted by one direction's window only", sketchDropped, oneWay)
}

// TestCELFBoundsAdmissible checks the invariant the lazy bounds rest on: at
// every greedy pick of randomized queries, over one part and over a forest
// of four, every unpicked relevant graph with a positive exact marginal
// gain, computed by brute force over the uncovered relevant set, has a heap
// entry whose bound is ≥ that gain. The test drives the call's picks itself;
// its answers and work must equal the search's, and each heap pop verifies
// one graph.
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
			part, err := BuildPartContext(ctx, db, m, vps, grid, graph.ID(base), min(per, db.Len()-base), 1)
			if err != nil {
				t.Fatal(err)
			}
			part.UseSketchFilter()
			parts = append(parts, part)
		}
		for trial := 0; trial < 8; trial++ {
			cut, theta, k := rng.Float64()*0.6, 1+rng.Float64()*12, 1+rng.Intn(8)
			rel := core.Relevant(db, func(f []float64) bool { return f[0] > cut })
			cfg := fmt.Sprintf("%d parts, cut %.3f, θ=%.3f, k=%d", nparts, cut, theta, k)
			var st QueryStats
			c, err := newCall(ctx, parts, rel, theta, &st)
			if err != nil {
				t.Fatal(err)
			}
			picked := make([]bool, len(rel))
			var answer []graph.ID
			for pick := 0; ; pick++ {
				bound := make(map[int32]int32, len(c.heap))
				for _, e := range c.heap {
					if _, dup := bound[e.pos]; dup {
						t.Fatalf("%s, pick %d: graph %d has two heap entries", cfg, pick, rel[e.pos])
					}
					bound[e.pos] = e.bound
				}
				for pos, id := range rel {
					if picked[pos] {
						continue
					}
					gain := int32(0)
					for q, other := range rel {
						if !c.covered.Contains(q) && m.Distance(id, other) <= theta {
							gain++
						}
					}
					if b, ok := bound[int32(pos)]; gain > 0 && (!ok || b < gain) {
						t.Fatalf("%s, pick %d: graph %d has bound %d (in heap: %v) < exact gain %d", cfg, pick, id, b, ok, gain)
					}
				}
				if pick == k {
					break
				}
				pos, nbrs, err := c.pick(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if pos < 0 {
					break
				}
				picked[pos] = true
				answer = append(answer, rel[pos])
				for _, q := range nbrs {
					c.covered.Add(int(q))
				}
			}
			var st2 QueryStats
			res, err := search(ctx, parts, rel, theta, k, &st2)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(answer, res.Answer) || st != st2 {
				t.Fatalf("%s: driven picks %v (%+v), search %v (%+v)", cfg, answer, st, res.Answer, st2)
			}
			if st.PQPops != st.VerifiedLeaves {
				t.Fatalf("%s: %d heap pops for %d verifications", cfg, st.PQPops, st.VerifiedLeaves)
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

// TestQuantileGrid pins the placement (§7.1, scheme 2): thresholds at the
// i/(gridSize+1) quantiles of the sorted sample, each kept only above the
// last kept, then the sample's maximum when it is larger still.
func TestQuantileGrid(t *testing.T) {
	var ds []float64
	for v := 21.0; v >= 1; v-- {
		ds = append(ds, v)
	}
	if got, want := QuantileGrid(ds, 4), []float64{5, 9, 13, 17, 21}; !reflect.DeepEqual(got, want) {
		t.Errorf("1…21 in 4: got %v, want %v", got, want)
	}
	if got, want := QuantileGrid([]float64{3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2}, 4), []float64{1, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("ties: got %v, want %v", got, want)
	}
	if got := QuantileGrid(nil, 4); got != nil {
		t.Errorf("empty sample: got %v", got)
	}
	if got := QuantileGrid([]float64{1, 2}, 0); got != nil {
		t.Errorf("gridSize 0: got %v", got)
	}
}

func TestAccessorsAndFootprint(t *testing.T) {
	db, m := clusteredDB(t, 3, 6, 18)
	grid := []float64{2, 8}
	ix := buildIndex(t, db, m, grid, 19)
	if ix.VO() == nil || ix.EmbeddingTable() == nil {
		t.Fatal("nil components")
	}
	if ix.EmbeddingTable().Len() != db.Len() {
		t.Errorf("embedding table holds %d records for %d graphs", ix.EmbeddingTable().Len(), db.Len())
	}
	if !reflect.DeepEqual(ix.Grid(), grid) {
		t.Errorf("Grid = %v", ix.Grid())
	}
	if want := ix.VO().Bytes() + ix.EmbeddingTable().Bytes(); ix.Bytes() != want {
		t.Errorf("Bytes = %d, want %d (ordering + table)", ix.Bytes(), want)
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
		rng := rand.New(rand.NewSource(21))
		vps, err := vantage.SelectVPs(db, m, numVPs, vantage.SelectMaxMin, rng)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := BuildPartContext(context.Background(), db, m, vps, []float64{2, 4, 8, 16, 64}, 0, db.Len(), 0)
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

// BenchmarkCandidateLists times one call's vantage pass alone on the
// benchmark corpus's shape: dud n = 1000 with 8 VPs and the sketch filter,
// a relevant set of the 20% of graphs with the largest first feature, and
// θ ∈ {4, 7, 12}, over one part and over four, on one worker. pairs/op is
// the pass's QueryStats.PassPairs.
func BenchmarkCandidateLists(b *testing.B) {
	db, err := dataset.ByName("dud", 1000, 1)
	if err != nil {
		b.Fatal(err)
	}
	m := metric.NewCache(metric.Star(db))
	vps, err := vantage.SelectVPs(db, m, 8, vantage.SelectRandom, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	first := make([]float64, db.Len())
	for i := range first {
		first[i] = db.Graph(graph.ID(i)).Features()[0]
	}
	slices.Sort(first)
	cut := first[db.Len()*4/5]
	rel := core.Relevant(db, func(f []float64) bool { return f[0] >= cut })
	ctx := context.Background()
	for _, nparts := range []int{1, 4} {
		per := db.Len() / nparts
		var views []*vantage.Subset
		for base := 0; base < db.Len(); base += per {
			part, err := BuildPartContext(ctx, db, m, vps, []float64{4, 8, 16}, graph.ID(base), per, 0)
			if err != nil {
				b.Fatal(err)
			}
			views = append(views, part.VO().Subset(rel, part.sketch))
		}
		for _, theta := range []float64{4, 7, 12} {
			b.Run(fmt.Sprintf("parts=%d/theta=%v", nparts, theta), func(b *testing.B) {
				pairs := 0
				for b.Loop() {
					if _, pairs, err = candidateLists(ctx, views, len(rel), theta, 1); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(pairs), "pairs/op")
			})
		}
	}
}
