package graphrep_test

import (
	"fmt"
	"math"

	"graphrep"
)

// ExampleOpen indexes a generated molecular library and answers a top-k
// representative query.
func ExampleOpen() {
	db, _ := graphrep.GenerateDataset("dud", 300, 7)
	engine, _ := graphrep.Open(db, graphrep.Options{Seed: 1})
	res, _ := engine.TopKRepresentative(graphrep.Query{
		Relevance: graphrep.FirstQuartileRelevance(db, nil),
		Theta:     10,
		K:         3,
	})
	fmt.Println(len(res.Answer) > 0, res.Power > 0)
	// Output: true true
}

// ExampleEngine_NewSession shows interactive θ refinement: one session
// answers every zoom level over the same relevant set.
func ExampleEngine_NewSession() {
	db, _ := graphrep.GenerateDataset("dud", 300, 7)
	engine, _ := graphrep.Open(db, graphrep.Options{Seed: 1})
	sess, _ := engine.NewSession(graphrep.FirstQuartileRelevance(db, nil))
	coarse, _ := sess.TopK(20, 5)
	fine, _ := sess.TopK(8, 5)
	// A smaller radius cannot cover more of the relevant set.
	fmt.Println(fine.Covered <= coarse.Covered)
	// Output: true
}

// ExampleMetricFunc runs the engine over a non-graph metric space (plain
// 1-D points), demonstrating that the index only needs a metric.
func ExampleMetricFunc() {
	var graphs []*graphrep.Graph
	for i := 0; i < 50; i++ {
		b := graphrep.NewBuilder(1)
		b.AddVertex(0)
		b.SetFeatures([]float64{float64(i)})
		g, _ := b.Build(graphrep.ID(i))
		graphs = append(graphs, g)
	}
	db, _ := graphrep.NewDatabase(graphs)
	line := graphrep.MetricFunc(func(a, b graphrep.ID) float64 {
		return math.Abs(db.Graph(a).Features()[0] - db.Graph(b).Features()[0])
	})
	engine, _ := graphrep.Open(db, graphrep.Options{Metric: line, Seed: 1})
	res, _ := engine.TopKRepresentative(graphrep.Query{
		Relevance: func([]float64) bool { return true },
		Theta:     5,
		K:         5,
	})
	// 5 exemplars with radius 5 can cover all 50 points on the line.
	fmt.Println(res.Power)
	// Output: 1
}
