// Metric-space generality: the paper notes the algorithm "is generalizable
// to all metric spaces". This example runs top-k representative queries over
// plain Euclidean vectors — no graph structure at all — by supplying a
// custom metric: each database object is a stub graph whose feature vector
// holds its coordinates, and the engine's distance is Euclidean. The
// NB-Index machinery (vantage orderings, π̂ bounds, the best-first search)
// works unchanged, because it only ever relies on the triangle inequality.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"graphrep"
)

func main() {
	const n = 2000
	rng := rand.New(rand.NewSource(12))
	// Plant 8 Gaussian clusters in the plane plus background noise; the
	// third feature dimension is a relevance score.
	centers := make([][2]float64, 8)
	for i := range centers {
		centers[i] = [2]float64{rng.Float64() * 100, rng.Float64() * 100}
	}
	graphs := make([]*graphrep.Graph, n)
	for i := range graphs {
		var x, y float64
		if rng.Float64() < 0.9 {
			c := centers[rng.Intn(len(centers))]
			x = c[0] + rng.NormFloat64()*3
			y = c[1] + rng.NormFloat64()*3
		} else {
			x, y = rng.Float64()*100, rng.Float64()*100 // outliers
		}
		b := graphrep.NewBuilder(1)
		b.AddVertex(0) // structure is irrelevant here
		b.SetFeatures([]float64{x, y, rng.Float64()})
		g, err := b.Build(graphrep.ID(i))
		if err != nil {
			log.Fatal(err)
		}
		graphs[i] = g
	}
	db, err := graphrep.NewDatabase(graphs)
	if err != nil {
		log.Fatal(err)
	}

	euclidean := graphrep.MetricFunc(func(a, b graphrep.ID) float64 {
		fa, fb := db.Graph(a).Features(), db.Graph(b).Features()
		return math.Hypot(fa[0]-fb[0], fa[1]-fb[1])
	})
	engine, err := graphrep.Open(db, graphrep.Options{Metric: euclidean, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}

	relevant := func(f []float64) bool { return f[2] > 0.5 }
	res, err := engine.TopKRepresentative(graphrep.Query{Relevance: relevant, Theta: 8, K: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top-%d representative points cover %d/%d relevant vectors (π=%.2f):\n",
		len(res.Answer), res.Covered, res.Relevant, res.Power)
	for i, id := range res.Answer {
		f := db.Graph(id).Features()
		fmt.Printf("  %d. point %-5d (%.1f, %.1f) — newly represents %d points\n",
			i+1, id, f[0], f[1], res.Gains[i])
	}
	fmt.Println("\neach exemplar sits in a different planted cluster — the same")
	fmt.Println("coverage semantics as graphs, driven purely by the metric")
}
