package ged

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"graphrep/internal/assignment"
	"graphrep/internal/dataset"
	"graphrep/internal/graph"
)

// fullStarDistance is the kernel's test-local reference: the full padded
// cost matrix built straight from graph.Stars() — center mismatch plus the
// spoke multisets' symmetric difference, 1 + degree against the padding star
// ε — solved cold, with no star cancelled.
func fullStarDistance(g1, g2 *graph.Graph) float64 {
	s1, s2 := g1.Stars(), g2.Stars()
	n := max(len(s1), len(s2))
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			switch {
			case i < len(s1) && j < len(s2):
				cost[i][j] = refStarCost(s1[i], s2[j])
			case i < len(s1):
				cost[i][j] = 1 + float64(s1[i].Degree())
			case j < len(s2):
				cost[i][j] = 1 + float64(s2[j].Degree())
			}
		}
	}
	return assignment.NewSolver().Total(cost)
}

// refStarCost is the ground cost of two real stars, counted without the
// kernel's packed keys.
func refStarCost(x, y graph.Star) float64 {
	c := 0.0
	if x.Center != y.Center {
		c = 1
	}
	count := make(map[graph.Spoke]int)
	for _, s := range x.Spokes {
		count[s]++
	}
	for _, s := range y.Spokes {
		count[s]--
	}
	for _, k := range count {
		c += math.Abs(float64(k))
	}
	return c
}

// checkStarKernel holds one pair to the reference: Distance and StarDistance
// equal the full solve, the threshold test decides θ = d − 1 and θ = d right
// under either greedy policy, and every proven interval sandwiches d. It
// returns d.
func checkStarKernel(t *testing.T, name string, g1, g2 *graph.Graph) float64 {
	t.Helper()
	want := fullStarDistance(g1, g2)
	a, b := NewStarSig(g1), NewStarSig(g2)
	if got := a.Distance(b); got != want {
		t.Fatalf("%s: Distance = %v, full solve = %v", name, got, want)
	}
	if got := StarDistance(g1, g2); got != want {
		t.Fatalf("%s: StarDistance = %v, full solve = %v", name, got, want)
	}
	emblo := a.Embedding().LowerBound(b.Embedding())
	for _, tau := range []float64{want - 1, want} {
		decs := []Decision{
			a.DistanceAtMost(b, tau),
			a.DistanceAtMostTiers(b, tau, emblo, false),
		}
		for _, dec := range decs {
			if dec.Leq != (want <= tau) {
				t.Fatalf("%s: τ=%v d=%v: Leq=%v at stage %v", name, tau, want, dec.Leq, dec.Stage)
			}
			if dec.Lo > want || dec.Hi < want {
				t.Fatalf("%s: τ=%v: interval [%v, %v] excludes d=%v", name, tau, dec.Lo, dec.Hi, want)
			}
		}
	}
	return want
}

// starPair is a crafted pair of small graphs; every label is below 3, so the
// pairs also seed FuzzStarKernel.
type starPair struct {
	name         string
	labelsA      []graph.Label
	edgesA       [][3]int
	labelsB      []graph.Label
	edgesB       [][3]int
	wantDistance float64
}

// craftedStarPairs covers the multisets that cancellation must get right:
// repeated stars, a residual of pure padding, degree-0 stars, stars that
// share only their center, and pairs with nothing left to solve.
var craftedStarPairs = []starPair{
	{
		// A holds three [1:(0,2)] and three [2:(0,1)]; B holds one
		// [1:(0,2)], which cancels once, then [2:(0,1)(1,0)] and [0:(1,2)].
		// The rest is a [2:(0,1)] against [2:(0,1)(1,0)] at 1, one more A
		// star against [0:(1,2)] at 3, and three against padding at 2.
		name:         "repeated star 3 vs 1",
		labelsA:      []graph.Label{1, 2, 1, 2, 1, 2},
		edgesA:       [][3]int{{0, 1, 0}, {2, 3, 0}, {4, 5, 0}},
		labelsB:      []graph.Label{1, 2, 0},
		edgesB:       [][3]int{{0, 1, 0}, {1, 2, 1}},
		wantDistance: 10,
	},
	{
		// A's stars are a sub-multiset of B's: the residual is B's extra
		// component against padding, 2 + 2.
		name:         "sub-multiset",
		labelsA:      []graph.Label{0, 1, 0},
		edgesA:       [][3]int{{0, 1, 0}, {1, 2, 0}},
		labelsB:      []graph.Label{0, 1, 0, 2, 2},
		edgesB:       [][3]int{{0, 1, 0}, {1, 2, 0}, {3, 4, 1}},
		wantDistance: 4,
	},
	{
		name:         "degree-0 stars against padding",
		labelsA:      []graph.Label{0, 0, 1},
		labelsB:      []graph.Label{0},
		wantDistance: 2,
	},
	{
		// Equal centers, spokes differing in the edge label: nothing
		// cancels, and each star pair costs 2.
		name:         "same centers, different spokes",
		labelsA:      []graph.Label{1, 2},
		edgesA:       [][3]int{{0, 1, 0}},
		labelsB:      []graph.Label{1, 2},
		edgesB:       [][3]int{{0, 1, 1}},
		wantDistance: 4,
	},
	{
		// [1:(0,2)] against [1:(0,2)(0,2)] and [2:] against [2:(0,1)]: one
		// spoke run is a prefix of the other, so neither pair cancels, and
		// each costs 1 after the shared [2:(0,1)] cancels.
		name:         "spoke run prefix",
		labelsA:      []graph.Label{1, 2, 2},
		edgesA:       [][3]int{{0, 1, 0}},
		labelsB:      []graph.Label{1, 2, 2},
		edgesB:       [][3]int{{0, 1, 0}, {0, 2, 0}},
		wantDistance: 2,
	},
	{
		name: "both empty",
	},
	{
		name:         "one empty",
		labelsB:      []graph.Label{0, 1},
		edgesB:       [][3]int{{0, 1, 0}},
		wantDistance: 4,
	},
	{
		// The same labelled path with its vertices numbered backwards.
		name:    "isomorphic, reversed vertex order",
		labelsA: []graph.Label{0, 1, 2, 1},
		edgesA:  [][3]int{{0, 1, 0}, {1, 2, 1}, {2, 3, 0}},
		labelsB: []graph.Label{1, 2, 1, 0},
		edgesB:  [][3]int{{2, 3, 0}, {1, 2, 1}, {0, 1, 0}},
	},
}

// TestResidualMatchesFullSolve proves the cancellation exact: on crafted
// multisets and on near and far corpus pairs, the kernel's residual solve
// equals the full padded assignment of the reference.
func TestResidualMatchesFullSolve(t *testing.T) {
	for _, c := range craftedStarPairs {
		g1, g2 := mkGraph(t, c.labelsA, c.edgesA), mkGraph(t, c.labelsB, c.edgesB)
		for _, p := range [][2]*graph.Graph{{g1, g2}, {g2, g1}} {
			if d := checkStarKernel(t, c.name, p[0], p[1]); d != c.wantDistance {
				t.Errorf("%s: d = %v, want %v", c.name, d, c.wantDistance)
			}
		}
	}
	for _, name := range []string{"dud", "dblp", "amazon"} {
		db, err := dataset.ByName(name, 200, 1)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		for i := 0; i+1 < db.Len(); i++ {
			a, b := db.Graph(graph.ID(i)), db.Graph(graph.ID(i+1))
			checkStarKernel(t, fmt.Sprintf("%s adjacent %d", name, i), a, b)
			j, k := rng.Intn(db.Len()), rng.Intn(db.Len())
			checkStarKernel(t, fmt.Sprintf("%s random %d,%d", name, j, k), db.Graph(graph.ID(j)), db.Graph(graph.ID(k)))
		}
	}
}

// FuzzStarKernel decodes two small graphs from the fuzz bytes — at most 12
// vertices, labels from a 3-symbol alphabet so that stars repeat — and holds
// the kernel to the test-local full solve, in both argument orders.
func FuzzStarKernel(f *testing.F) {
	for _, c := range craftedStarPairs {
		f.Add(append(encodeFuzzGraph(c.labelsA, c.edgesA), encodeFuzzGraph(c.labelsB, c.edgesB)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g1, rest := decodeFuzzGraph(data)
		g2, _ := decodeFuzzGraph(rest)
		d := checkStarKernel(t, "a,b", g1, g2)
		if back := checkStarKernel(t, "b,a", g2, g1); back != d {
			t.Fatalf("asymmetric: d(a,b) = %v, d(b,a) = %v", d, back)
		}
	})
}

// decodeFuzzGraph reads one graph from data: a vertex count byte (mod 13),
// one label byte per vertex (mod 3), an edge count byte (mod 32), then two
// bytes per edge — endpoint nibbles (each mod the vertex count) and the edge
// label (mod 2). Self-loops and repeated edges are skipped and missing bytes
// read as zero. It returns the graph and the bytes after it.
func decodeFuzzGraph(data []byte) (*graph.Graph, []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := next() % 13
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddVertex(graph.Label(next() % 3))
	}
	m := next() % 32
	seen := make(map[[2]int]bool)
	for e := 0; e < m; e++ {
		uv, l := next(), next()
		if n == 0 {
			continue
		}
		u, v := (uv>>4)%n, (uv&15)%n
		if u > v {
			u, v = v, u
		}
		if u == v || seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		b.AddEdge(u, v, graph.Label(l%2))
	}
	return b.MustBuild(0), data
}

// encodeFuzzGraph is decodeFuzzGraph's inverse for graphs within its limits.
func encodeFuzzGraph(labels []graph.Label, edges [][3]int) []byte {
	out := []byte{byte(len(labels))}
	for _, l := range labels {
		out = append(out, byte(l))
	}
	out = append(out, byte(len(edges)))
	for _, e := range edges {
		out = append(out, byte(e[0]<<4|e[1]), byte(e[2]))
	}
	return out
}
