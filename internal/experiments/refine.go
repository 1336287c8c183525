package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"graphrep/internal/disc"
	"graphrep/internal/nbindex"
)

// RunFig5lThresholdGap reproduces Fig. 5(l)/6(a): NB-Index query time as the
// gap between the user's θ and the closest higher indexed threshold θᵢ
// grows. The paper's shape: cost rises gently with the gap (looser π̂
// bounds), but stays far below the unindexed engines even at the largest
// gap, because the vantage orderings are unaffected by the grid. This
// engine bounds every query at its own θ, so the grid never enters a query:
// every gap row does the same work, and only timing noise separates them.
func RunFig5lThresholdGap(w io.Writer, s Scale) error {
	fx, err := NewFixture("dud", s.N, s, 900)
	if err != nil {
		return err
	}
	header(w, "Fig. 5(l)/6(a): query time vs gap to nearest indexed threshold", fx, s)
	// Rebuild the index with a sparse grid whose first indexed threshold
	// sits well above the query θ, then sweep the gap downward.
	fmt.Fprintf(w, "%12s | %12s %14s\n", "gap θi−θ", "nbindex ms", "verifications")
	for _, gapMult := range []float64{0, 0.25, 0.5, 1, 2} {
		gap := fx.Theta * gapMult
		grid := []float64{fx.Theta + gap, fx.Theta * 8}
		sort.Float64s(grid)
		ix, err := nbindex.Build(fx.DB, fx.M, nbindex.Options{
			NumVPs: s.NumVPs, ThetaGrid: grid,
		}, rand.New(rand.NewSource(901)))
		if err != nil {
			return err
		}
		fx.ResetDistances() // each gap row pays for its own query distances
		start := time.Now()
		sess := ix.NewSession(fx.Rel)
		if _, err := sess.TopK(fx.Theta, 10); err != nil {
			return err
		}
		dur := time.Since(start)
		fmt.Fprintf(w, "%12.2f | %12.1f %14d\n", gap, ms(dur), sess.LastStats().VerifiedLeaves)
	}
	return nil
}

// refinementSchedule yields the ±10% zoom-in/zoom-out walk of Fig. 6(i).
func refinementSchedule(theta float64, rounds int, rng *rand.Rand) []float64 {
	out := make([]float64, 0, rounds)
	cur := theta
	for i := 0; i < rounds; i++ {
		if rng.Intn(2) == 0 {
			cur *= 0.9
		} else {
			cur *= 1.1
		}
		out = append(out, cur)
	}
	return out
}

// RunFig6iRefinement reproduces Fig. 6(i): after an initial query, θ is
// repeatedly refined by ±10% and the answer recomputed. The paper's shape:
// NB-Index handles a refinement in a fraction of the initial query (the
// initialization phase is insulated from θ), while every baseline pays the
// full query cost again.
func RunFig6iRefinement(w io.Writer, s Scale) error {
	for di, name := range []string{"dud", "dblp", "amazon"} {
		fx, err := NewFixture(name, s.N, s, 1000+int64(di))
		if err != nil {
			return err
		}
		header(w, "Fig. 6(i) ("+name+"): interactive θ refinement", fx, s)
		rng := rand.New(rand.NewSource(1001 + int64(di)))
		schedule := refinementSchedule(fx.Theta, s.Refines, rng)

		// NB-Index: one session, many TopK calls.
		ix, err := fx.NBIndex(s)
		if err != nil {
			return err
		}
		initStart := time.Now()
		sess := ix.NewSession(fx.Rel)
		if _, err := sess.TopK(fx.Theta, 10); err != nil {
			return err
		}
		initial := time.Since(initStart)
		var nbTotal time.Duration
		for _, theta := range schedule {
			d, err := timeOf(func() error {
				_, err := sess.TopK(theta, 10)
				return err
			})
			if err != nil {
				return err
			}
			nbTotal += d
		}

		// Baselines re-run the whole query per refinement.
		var ctTotal, mtTotal time.Duration
		for _, theta := range schedule {
			r, err := fx.RunCTreeGreedy(theta, 10)
			if err != nil {
				return err
			}
			ctTotal += r.Duration
			r, err = fx.RunMTreeGreedy(theta, 10)
			if err != nil {
				return err
			}
			mtTotal += r.Duration
		}
		// DisC adapts via its zoom operators (still recomputing range
		// neighborhoods at the new θ — the cost the paper's Fig. 6(i)
		// attributes to DisC).
		mt, err := fx.MTree()
		if err != nil {
			return err
		}
		prevTheta := fx.Theta
		prev, err := disc.Cover(fx.DB, mt, fx.Rel, prevTheta, 10)
		if err != nil {
			return err
		}
		var discTotal time.Duration
		for _, theta := range schedule {
			fx.ResetDistances()
			d, err := timeOf(func() error {
				var zerr error
				if theta < prevTheta {
					prev, zerr = disc.ZoomIn(fx.DB, mt, fx.Rel, prev.Answer, theta, 10)
				} else {
					prev, zerr = disc.ZoomOut(fx.DB, mt, fx.Rel, prev.Answer, theta, 10)
				}
				return zerr
			})
			if err != nil {
				return err
			}
			discTotal += d
			prevTheta = theta
		}
		n := float64(len(schedule))
		fmt.Fprintf(w, "initial nbindex query: %.1f ms\n", ms(initial))
		fmt.Fprintf(w, "avg refinement: nbindex=%.1f ms  ctree=%.1f ms  mtree=%.1f ms  disc-zoom=%.1f ms\n\n",
			ms(nbTotal)/n, ms(ctTotal)/n, ms(mtTotal)/n, ms(discTotal)/n)
	}
	return nil
}

// RunFig6jRefinementScaling reproduces Fig. 6(j): average refinement time
// against dataset size. The paper's shape: NB-Index stays more than an
// order of magnitude below the rebuild-based baselines at every size.
func RunFig6jRefinementScaling(w io.Writer, s Scale) error {
	fmt.Fprintln(w, "== Fig. 6(j): refinement time vs dataset size (dud) ==")
	fmt.Fprintf(w, "%8s | %14s %14s\n", "n", "nbindex ms", "ctree ms")
	for _, n := range s.SweepN {
		fx, err := NewFixture("dud", n, s, 1100)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(1101))
		schedule := refinementSchedule(fx.Theta, minInt(s.Refines, 5), rng)
		ix, err := fx.NBIndex(s)
		if err != nil {
			return err
		}
		sess := ix.NewSession(fx.Rel)
		if _, err := sess.TopK(fx.Theta, 10); err != nil {
			return err
		}
		var nbTotal, ctTotal time.Duration
		for _, theta := range schedule {
			d, err := timeOf(func() error {
				_, err := sess.TopK(theta, 10)
				return err
			})
			if err != nil {
				return err
			}
			nbTotal += d
			r, err := fx.RunCTreeGreedy(theta, 10)
			if err != nil {
				return err
			}
			ctTotal += r.Duration
		}
		count := float64(len(schedule))
		fmt.Fprintf(w, "%8d | %14.2f %14.2f\n", n, ms(nbTotal)/count, ms(ctTotal)/count)
	}
	return nil
}
