// Interactive θ refinement: the "zoom level" scenario of §7 and Fig. 6(i).
// An analyst rarely knows the right distance threshold up front; they issue
// a query, inspect the answer, and zoom in (smaller θ, finer-grained
// exemplars) or out (larger θ, coarser summary). A Session keeps the
// relevant set, and the engine's distance memo keeps every distance the
// first query computed, so each refinement costs a fraction of the first
// query.
package main

import (
	"fmt"
	"log"
	"time"

	"graphrep"
)

func main() {
	db, err := graphrep.GenerateDataset("amazon", 1500, 3)
	if err != nil {
		log.Fatal(err)
	}
	engine, err := graphrep.Open(db)
	if err != nil {
		log.Fatal(err)
	}
	popular := graphrep.FirstQuartileRelevance(db, nil)

	start := time.Now()
	sess, err := engine.NewSession(popular)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session initialized in %v (%d relevant co-purchase neighborhoods)\n",
		time.Since(start).Round(time.Millisecond), sess.RelevantCount())

	// Start coarse and zoom: each θ is a different "zoom level" over the
	// same relevant set.
	for _, theta := range []float64{60, 40, 25, 40, 55} {
		start := time.Now()
		res, err := sess.TopK(theta, 6)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("θ=%5.1f: %d exemplars cover %3d/%d relevant (π=%.2f)  [%v]\n",
			theta, len(res.Answer), res.Covered, res.Relevant, res.Power,
			time.Since(start).Round(time.Microsecond))
	}
	fmt.Println("\nsmaller θ → finer zoom: lower coverage per exemplar, tighter structural families")
}
