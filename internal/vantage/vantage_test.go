package vantage

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"graphrep/internal/graph"
	"graphrep/internal/metric"
)

// lineDB builds a database of path graphs of increasing length; under the
// star distance longer paths are farther apart, giving a nicely spread
// metric space without relying on randomness.
func lineDB(t testing.TB, n int) (*graph.Database, metric.Metric) {
	if t != nil {
		t.Helper()
	}
	graphs := make([]*graph.Graph, n)
	for i := range graphs {
		order := i + 1
		b := graph.NewBuilder(order)
		for v := 0; v < order; v++ {
			b.AddVertex(1)
		}
		for v := 0; v+1 < order; v++ {
			b.AddEdge(v, v+1, 0)
		}
		b.SetFeatures([]float64{float64(i)})
		g, err := b.Build(graph.ID(i))
		if err != nil {
			panic(err)
		}
		graphs[i] = g
	}
	db, err := graph.NewDatabase(graphs)
	if err != nil {
		panic(err)
	}
	return db, metric.NewCache(metric.Star(db))
}

func randDB(t testing.TB, n int, seed int64) (*graph.Database, metric.Metric) {
	rng := rand.New(rand.NewSource(seed))
	graphs := make([]*graph.Graph, n)
	for i := range graphs {
		order := 2 + rng.Intn(8)
		b := graph.NewBuilder(order)
		for v := 0; v < order; v++ {
			b.AddVertex(graph.Label(rng.Intn(3)))
		}
		for u := 0; u < order; u++ {
			for v := u + 1; v < order; v++ {
				if rng.Float64() < 0.3 {
					b.AddEdge(u, v, 0)
				}
			}
		}
		g, err := b.Build(graph.ID(i))
		if err != nil {
			panic(err)
		}
		graphs[i] = g
	}
	db, err := graph.NewDatabase(graphs)
	if err != nil {
		panic(err)
	}
	return db, metric.NewCache(metric.Star(db))
}

// candidates returns N̂_θ(g) over the whole ordering, in first-space order —
// a Subset scan over every covered graph.
func candidates(o *Ordering, g graph.ID, theta float64) []graph.ID {
	ids := make([]graph.ID, o.Len())
	for i := range ids {
		ids[i] = o.Base() + graph.ID(i)
	}
	all := o.Subset(ids, nil)
	var out []graph.ID
	all.Scan(all.Coords(int32(g-o.Base())), nil, theta, func(key int32) {
		out = append(out, ids[key])
	})
	return out
}

func TestSelectVPs(t *testing.T) {
	db, m := randDB(t, 30, 1)
	rng := rand.New(rand.NewSource(2))
	for _, policy := range []SelectionPolicy{SelectRandom, SelectMaxMin} {
		vps, err := SelectVPs(db, m, 5, policy, rng)
		if err != nil {
			t.Fatalf("SelectVPs(%v): %v", policy, err)
		}
		if len(vps) != 5 {
			t.Fatalf("got %d vps", len(vps))
		}
		seen := make(map[graph.ID]bool)
		for _, vp := range vps {
			if seen[vp] {
				t.Errorf("policy %v: duplicate vp %d", policy, vp)
			}
			seen[vp] = true
		}
	}
	if _, err := SelectVPs(db, m, 0, SelectRandom, rng); err == nil {
		t.Error("numVPs=0 accepted")
	}
	if _, err := SelectVPs(db, m, 31, SelectRandom, rng); err == nil {
		t.Error("numVPs > n accepted")
	}
	if _, err := SelectVPs(db, m, 2, SelectionPolicy(99), rng); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestBuildErrors(t *testing.T) {
	db, m := randDB(t, 5, 3)
	if _, err := Build(db, m, nil); err == nil {
		t.Error("empty vps accepted")
	}
	if _, err := Build(db, m, []graph.ID{99}); err == nil {
		t.Error("out-of-range vp accepted")
	}
}

// lowerBound returns the vantage distance max_v |d(v,a) − d(v,b)|, the
// lower bound on d(a,b) of Theorem 4 (Definition 4 lifted to a VP set) that
// Subset.Scan tests space by space.
func lowerBound(o *Ordering, a, b graph.ID) float64 {
	lb := 0.0
	for v := 0; v < o.NumVPs(); v++ {
		lb = math.Max(lb, math.Abs(o.VPDistance(v, a)-o.VPDistance(v, b)))
	}
	return lb
}

// Theorem 4: the vantage distance never exceeds the metric distance.
func TestBoundsSandwichTrueDistance(t *testing.T) {
	db, m := randDB(t, 40, 4)
	rng := rand.New(rand.NewSource(5))
	vps, _ := SelectVPs(db, m, 6, SelectMaxMin, rng)
	o, err := Build(db, m, vps)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for i := 0; i < db.Len(); i++ {
		for j := 0; j < db.Len(); j++ {
			a, b := graph.ID(i), graph.ID(j)
			d := m.Distance(a, b)
			lb := lowerBound(o, a, b)
			if lb < 0 || lb > d+1e-9 {
				t.Fatalf("LB %v outside [0, d=%v] at (%d,%d)", lb, d, i, j)
			}
		}
	}
}

// Theorem 5: N̂(g) ⊇ N(g) for every g and θ.
func TestCandidatesSuperset(t *testing.T) {
	db, m := randDB(t, 50, 6)
	rng := rand.New(rand.NewSource(7))
	vps, _ := SelectVPs(db, m, 4, SelectRandom, rng)
	o, err := Build(db, m, vps)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := graph.ID(r.Intn(db.Len()))
		theta := r.Float64() * 10
		cands := make(map[graph.ID]bool)
		ids := candidates(o, g, theta)
		for _, id := range ids {
			cands[id] = true
		}
		for i := 0; i < db.Len(); i++ {
			if m.Distance(g, graph.ID(i)) <= theta && !cands[graph.ID(i)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// A Subset holds only its members.
func TestCandidatesIncludeFilter(t *testing.T) {
	db, m := lineDB(t, 20)
	o, err := Build(db, m, []graph.ID{0, 19})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var even []graph.ID
	for id := graph.ID(0); id < 20; id += 2 {
		even = append(even, id)
	}
	sub := o.Subset(even, nil)
	q := sub.Coords(5) // graph 10
	var filtered []graph.ID
	sub.Scan(q, nil, 5, func(key int32) { filtered = append(filtered, even[key]) })
	all := candidates(o, 10, 5)
	var want []graph.ID
	for _, id := range all {
		if id%2 == 0 {
			want = append(want, id)
		}
	}
	if !reflect.DeepEqual(filtered, want) {
		t.Errorf("subset candidates %v, want the even full-ordering candidates %v", filtered, want)
	}
	if len(filtered) >= len(all) {
		t.Errorf("subset did not shrink candidates: %d vs %d", len(filtered), len(all))
	}
}

func TestCandidatesSelfIncluded(t *testing.T) {
	db, m := lineDB(t, 10)
	o, _ := Build(db, m, []graph.ID{0})
	for i := 0; i < db.Len(); i++ {
		found := false
		ids := candidates(o, graph.ID(i), 0)
		for _, id := range ids {
			if id == graph.ID(i) {
				found = true
			}
		}
		if !found {
			t.Errorf("graph %d missing from its own θ=0 candidates", i)
		}
	}
}

func TestMoreVPsTightenCandidates(t *testing.T) {
	db, m := randDB(t, 60, 8)
	rng := rand.New(rand.NewSource(9))
	vps, _ := SelectVPs(db, m, 8, SelectMaxMin, rng)
	few, _ := Build(db, m, vps[:2])
	many, _ := Build(db, m, vps)
	totalFew, totalMany := 0, 0
	for i := 0; i < db.Len(); i += 5 {
		fewIDs := candidates(few, graph.ID(i), 4)
		manyIDs := candidates(many, graph.ID(i), 4)
		totalFew += len(fewIDs)
		totalMany += len(manyIDs)
	}
	if totalMany > totalFew {
		t.Errorf("more VPs produced more candidates: %d vs %d", totalMany, totalFew)
	}
}

// Every candidate Scan reports has a vantage lower bound within θ (up to the
// first-space window's rounding), and that bound is a true lower bound on
// the metric distance.
func TestCandidatesWithLB(t *testing.T) {
	db, m := randDB(t, 50, 12)
	rng := rand.New(rand.NewSource(13))
	vps, _ := SelectVPs(db, m, 4, SelectMaxMin, rng)
	o, err := Build(db, m, vps)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		g := graph.ID(rng.Intn(db.Len()))
		theta := rng.Float64() * 8
		for _, id := range candidates(o, g, theta) {
			lb := lowerBound(o, g, id)
			if lb > theta+1e-12 {
				t.Fatalf("LB %v exceeds θ %v", lb, theta)
			}
			if d := m.Distance(g, id); lb > d+1e-9 {
				t.Fatalf("LB %v exceeds true distance %v", lb, d)
			}
		}
	}
}

func TestFPRSample(t *testing.T) {
	db, m := randDB(t, 60, 10)
	rng := rand.New(rand.NewSource(11))
	vps, _ := SelectVPs(db, m, 3, SelectRandom, rng)
	o, _ := Build(db, m, vps)
	fpr := o.FPRSample(m, 4, 20, rng)
	if fpr < 0 || fpr > 1 {
		t.Errorf("FPR = %v", fpr)
	}
	// θ covering the whole space: candidates are everything and none are
	// false positives.
	if fpr := o.FPRSample(m, 1e9, 5, rng); fpr != 0 {
		t.Errorf("FPR at huge θ = %v, want 0", fpr)
	}
}

// Uniform-space sanity check behind Eq. 12: on a 1-D uniform metric space,
// the observed candidate FPR must be bounded by the no-VP false rate
// P(d > θ) = (m−1)/m, and adding a second vantage point can only reduce the
// candidate set. (A tight match to Eq. 12 is not expected: its independence
// model ignores 1-D geometry, where same-side pairs are filtered perfectly.)
func TestUniformSpaceFPRBracketing(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const n = 400
	const mFactor = 5.0 // diameter = m·θ with θ = 1
	coords := make([]float64, n)
	for i := range coords {
		coords[i] = rng.Float64() * mFactor
	}
	lineMetric := metric.Func(func(a, b graph.ID) float64 {
		return math.Abs(coords[a] - coords[b])
	})
	db := lineDBStub(t, n)
	theta := 1.0
	vp1, vp2 := graph.ID(rng.Intn(n)), graph.ID(rng.Intn(n))
	one, err := Build(db, lineMetric, []graph.ID{vp1})
	if err != nil {
		t.Fatal(err)
	}
	two, err := Build(db, lineMetric, []graph.ID{vp1, vp2})
	if err != nil {
		t.Fatal(err)
	}
	count := func(o *Ordering) (cands, falsePos int) {
		for s := 0; s < 150; s++ {
			g := graph.ID(rng.Intn(n))
			ids := candidates(o, g, theta)
			for _, id := range ids {
				if id == g {
					continue
				}
				cands++
				if lineMetric.Distance(g, id) > theta {
					falsePos++
				}
			}
		}
		return
	}
	c1, f1 := count(one)
	c2, _ := count(two)
	if c1 == 0 || c2 == 0 {
		t.Fatal("no candidates generated")
	}
	fpr1 := float64(f1) / float64(c1)
	noVP := (mFactor - 1) / mFactor // P(d > θ) without any filtering
	if fpr1 >= noVP {
		t.Errorf("1-VP FPR %.3f not below the unfiltered rate %.3f", fpr1, noVP)
	}
	// More VPs: strictly no more candidates (Theorem 5 tightening).
	if c2 > c1 {
		t.Errorf("2 VPs produced more candidates: %d > %d", c2, c1)
	}
}

// lineDBStub builds a placeholder database of n single-vertex graphs; the
// test above supplies its own metric, so structure is irrelevant.
func lineDBStub(t *testing.T, n int) *graph.Database {
	t.Helper()
	graphs := make([]*graph.Graph, n)
	for i := range graphs {
		b := graph.NewBuilder(1)
		b.AddVertex(0)
		g, err := b.Build(graph.ID(i))
		if err != nil {
			t.Fatal(err)
		}
		graphs[i] = g
	}
	db, err := graph.NewDatabase(graphs)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestAccessors(t *testing.T) {
	db, m := lineDB(t, 12)
	o, _ := Build(db, m, []graph.ID{3, 7})
	if o.NumVPs() != 2 || o.Len() != 12 {
		t.Errorf("NumVPs/Len = %d/%d", o.NumVPs(), o.Len())
	}
	if o.VPs()[1] != 7 {
		t.Errorf("VPs = %v", o.VPs())
	}
	if d := o.VPDistance(0, 3); d != 0 {
		t.Errorf("VPDistance(vp,vp) = %v", d)
	}
	if o.Bytes() <= 0 {
		t.Error("Bytes <= 0")
	}
	if math.IsNaN(o.VPDistance(1, 0)) {
		t.Error("NaN distance")
	}
}
