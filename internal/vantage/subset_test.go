package vantage_test

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"graphrep/internal/bitset"
	"graphrep/internal/dataset"
	"graphrep/internal/graph"
	"graphrep/internal/metric"
	"graphrep/internal/mmapfile"
	"graphrep/internal/nbindex"
	"graphrep/internal/shard"
	"graphrep/internal/vantage"
)

// bruteScan is the reference a Subset scan must reproduce: walk the first
// vantage space's order and keep the members whose distance to the query
// point is ≤ θ in every vantage space, reporting max_v |Δ_v| as the lower
// bound. The first space is tested as the window q[0]−θ ≤ d ≤ q[0]+θ, each
// end rounded once — the rule every scan has used. Just below a gap it
// admits a member |Δ_0| = θ + ulp away, whose lower bound then exceeds θ;
// testing |Δ_0| ≤ θ instead would drop it.
func bruteScan(o *vantage.Ordering, key map[graph.ID]int32, q []float64, theta float64, skip *bitset.Set) ([]int32, []float64) {
	var keys []int32
	var lbs []float64
	for _, id := range o.ByDistRow(0) {
		k, ok := key[id]
		if !ok || (skip != nil && skip.Contains(int(k))) {
			continue
		}
		d0 := o.VPDistance(0, id)
		lb, within := math.Abs(d0-q[0]), d0 >= q[0]-theta && d0 <= q[0]+theta
		for v := 1; v < o.NumVPs() && within; v++ {
			d := math.Abs(o.VPDistance(v, id) - q[v])
			if d > theta {
				within = false
			}
			lb = math.Max(lb, d)
		}
		if within {
			keys = append(keys, k)
			lbs = append(lbs, lb)
		}
	}
	return keys, lbs
}

// coordsOf returns g's embedding coordinates from whichever part covers it;
// shards share one VP set, so they are a valid query point for every part.
func coordsOf(set *shard.Set, g graph.ID) []float64 {
	o := set.Part(set.PartFor(g)).VO()
	q := make([]float64, o.NumVPs())
	for v := range q {
		q[v] = o.VPDistance(v, g)
	}
	return q
}

// checkSubsetScans compares every part's Subset scans against bruteScan for
// a shuffled ID subset (keys are positions in that shuffled slice), from
// query points inside and outside the subset and in other parts, at θ = 0,
// on every stored first-coordinate gap to the query (members exactly on a
// window edge, from both sides), just beside those gaps, and at the
// largest grid threshold.
func checkSubsetScans(t *testing.T, set *shard.Set, db *graph.Database, rng *rand.Rand) {
	t.Helper()
	var ids []graph.ID
	for _, i := range rng.Perm(db.Len()) {
		if rng.Intn(5) < 2 {
			ids = append(ids, graph.ID(i))
		}
	}
	key := make(map[graph.ID]int32, len(ids))
	for k, id := range ids {
		key[id] = int32(k)
	}
	skip := bitset.New(len(ids))
	for k := range ids {
		if rng.Intn(4) == 0 {
			skip.Add(k)
		}
	}
	grid := set.Grid()
	for p := 0; p < set.Shards(); p++ {
		o := set.Part(p).VO()
		sub := o.Subset(ids)
		members := 0
		for _, id := range ids {
			if id >= o.Base() && int(id-o.Base()) < o.Len() {
				members++
				if got, want := sub.Coords(key[id]), coordsOf(set, id); !reflect.DeepEqual(got, want) {
					t.Fatalf("part %d: Coords(%d) = %v, want %v", p, key[id], got, want)
				}
			}
		}
		all := 0
		sub.Scan(coordsOf(set, 0), math.Inf(1), nil, func(int32, float64) { all++ })
		if all != members {
			t.Fatalf("part %d: subset holds %d members, want %d", p, all, members)
		}
		for g := 0; g < db.Len(); g += 3 {
			q := coordsOf(set, graph.ID(g))
			thetas := []float64{0, grid[len(grid)-1]}
			for _, id := range o.ByDistRow(0) {
				gap := math.Abs(o.VPDistance(0, id) - q[0])
				thetas = append(thetas, gap, math.Nextafter(gap, 0), math.Nextafter(gap, math.Inf(1)))
			}
			sort.Float64s(thetas)
			for i, theta := range thetas {
				if i > 0 && theta == thetas[i-1] {
					continue
				}
				for _, sk := range []*bitset.Set{nil, skip} {
					var keys []int32
					var lbs []float64
					sub.Scan(q, theta, sk, func(k int32, lb float64) {
						keys = append(keys, k)
						lbs = append(lbs, lb)
					})
					wantKeys, wantLBs := bruteScan(o, key, q, theta, sk)
					if !reflect.DeepEqual(keys, wantKeys) || !reflect.DeepEqual(lbs, wantLBs) {
						t.Fatalf("part %d, query %d, θ=%v, skip=%v:\n got keys %v lbs %v\nwant keys %v lbs %v",
							p, g, theta, sk != nil, keys, lbs, wantKeys, wantLBs)
					}
				}
			}
		}
	}
}

// TestSubsetScanMatchesBruteForce checks Subset scans against the brute-force
// reference on a built two-shard index, on the same index saved as NBIDX004
// and reopened over a read-only mapping (view-backed orderings), and on both
// after Insert has extended the last shard's ordering — which, on the mapped
// index, first thaws its rows off the mapping.
func TestSubsetScanMatchesBruteForce(t *testing.T) {
	const n, extra = 90, 6
	full, err := dataset.ByName("dud", n+extra, 21)
	if err != nil {
		t.Fatal(err)
	}
	graphs := make([]*graph.Graph, n)
	for i := range graphs {
		graphs[i] = full.Graph(graph.ID(i))
	}
	newDB := func() (*graph.Database, metric.Metric) {
		db, err := graph.NewDatabase(graphs)
		if err != nil {
			t.Fatal(err)
		}
		return db, metric.NewCache(metric.Star(db))
	}
	db, m := newDB()
	rng := rand.New(rand.NewSource(22))
	grid := nbindex.ChooseGrid(db, m, 6, 1000, rng)
	built, err := shard.Build(db, m, shard.Options{Shards: 2, NumVPs: 6, ThetaGrid: grid}, rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := built.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.nbx")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := mmapfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	mdb, mm := newDB()
	mapped, err := shard.ReadBytes(f.Bytes(), mdb, mm)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < mapped.Shards(); p++ {
		if err := mapped.Part(p).EnsureValid(); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		set  *shard.Set
		db   *graph.Database
	}{{"built", built, db}, {"mapped", mapped, mdb}}
	for _, c := range cases {
		checkSubsetScans(t, c.set, c.db, rand.New(rand.NewSource(23)))
		for i := n; i < n+extra; i++ {
			if err := c.db.Append(full.Graph(graph.ID(i))); err != nil {
				t.Fatal(err)
			}
			if err := c.set.Insert(graph.ID(i)); err != nil {
				t.Fatalf("%s: Insert(%d): %v", c.name, i, err)
			}
		}
		checkSubsetScans(t, c.set, c.db, rand.New(rand.NewSource(24)))
	}
}
