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

	"graphrep/internal/dataset"
	"graphrep/internal/ged"
	"graphrep/internal/graph"
	"graphrep/internal/metric"
	"graphrep/internal/mmapfile"
	"graphrep/internal/nbindex"
	"graphrep/internal/shard"
	"graphrep/internal/vantage"
)

// bruteScan is the reference a Subset scan must reproduce: walk the first
// vantage space's order and keep the members whose distance to the query
// point is ≤ θ in every vantage space and, when sketches is non-nil, whose
// sketch row passes ged.SketchWithin against the query's row qs. The first
// space is tested as the window q[0]−θ ≤ d ≤ q[0]+θ, each end rounded once —
// the rule every scan has used. Just below a gap it admits a member
// |Δ_0| = θ + ulp away; testing |Δ_0| ≤ θ instead would drop it.
func bruteScan(o *vantage.Ordering, key map[graph.ID]int32, q []float64, sketches map[graph.ID][]uint16, qs []uint16, theta float64) []int32 {
	var keys []int32
	for _, id := range o.ByDistRow(0) {
		k, ok := key[id]
		if !ok {
			continue
		}
		d0 := o.VPDistance(0, id)
		within := d0 >= q[0]-theta && d0 <= q[0]+theta
		for v := 1; v < o.NumVPs() && within; v++ {
			within = math.Abs(o.VPDistance(v, id)-q[v]) <= theta
		}
		if within && sketches != nil {
			within = ged.SketchWithin(sketches[id], qs, ged.SketchLimit(theta))
		}
		if within {
			keys = append(keys, k)
		}
	}
	return keys
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
// a shuffled ID subset (keys are positions in that shuffled slice), without
// and with sketch rows, from query points inside and outside the subset and
// in other parts, at θ = 0, on every stored first-coordinate gap to the
// query (members exactly on a window edge, from both sides), just beside
// those gaps, and at the largest grid threshold.
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
	sketches := make(map[graph.ID][]uint16, db.Len())
	for i := 0; i < db.Len(); i++ {
		sketches[graph.ID(i)] = ged.NewEmbedding(db.Graph(graph.ID(i))).AppendSketch(nil)
	}
	grid := set.Grid()
	for p := 0; p < set.Shards(); p++ {
		o := set.Part(p).VO()
		var rows []uint16
		for i := 0; i < o.Len(); i++ {
			rows = append(rows, sketches[o.Base()+graph.ID(i)]...)
		}
		sub, sketched := o.Subset(ids, nil), o.Subset(ids, rows)
		members := 0
		for _, id := range ids {
			if id >= o.Base() && int(id-o.Base()) < o.Len() {
				members++
				if got, want := sub.Coords(key[id]), coordsOf(set, id); !reflect.DeepEqual(got, want) {
					t.Fatalf("part %d: Coords(%d) = %v, want %v", p, key[id], got, want)
				}
				if got := sketched.Sketch(key[id]); !reflect.DeepEqual(got, sketches[id]) {
					t.Fatalf("part %d: Sketch(%d) = %v, want %v", p, key[id], got, sketches[id])
				}
			}
		}
		if sub.Sketch(0) != nil {
			t.Fatalf("part %d: a subset built without sketches returned a sketch row", p)
		}
		all := 0
		sub.Scan(coordsOf(set, 0), nil, math.Inf(1), func(int32) { all++ })
		if all != members {
			t.Fatalf("part %d: subset holds %d members, want %d", p, all, members)
		}
		for g := 0; g < db.Len(); g += 3 {
			q, qs := coordsOf(set, graph.ID(g)), sketches[graph.ID(g)]
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
				for _, sk := range []map[graph.ID][]uint16{nil, sketches} {
					scanned := sub
					if sk != nil {
						scanned = sketched
					}
					var keys []int32
					scanned.Scan(q, qs, theta, func(k int32) { keys = append(keys, k) })
					if want := bruteScan(o, key, q, sk, qs, theta); !reflect.DeepEqual(keys, want) {
						t.Fatalf("part %d, query %d, θ=%v, sketch=%v:\n got keys %v\nwant keys %v",
							p, g, theta, sk != nil, keys, want)
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
