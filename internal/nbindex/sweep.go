package nbindex

import (
	"context"
	"fmt"
	"sort"
)

// ThetaPoint is one row of a threshold sweep: the answer quality obtained at
// one θ.
type ThetaPoint struct {
	Theta float64
	// Power is π_θ(A) for the greedy answer at this θ.
	Power float64
	// CR is the compression ratio |N_θ(A)|/|A|.
	CR float64
	// AnswerSize is |A| (may be under k when coverage saturates).
	AnswerSize int
}

// SweepTheta answers the query at every indexed threshold (plus any extra
// thresholds given) and reports the quality trade-off curve. This powers the
// "optimal zoom level" workflow of §7: rather than guessing θ, a user sweeps
// the indexed grid on one session and picks the level whose
// coverage/granularity trade-off fits the task.
func (s *Session) SweepTheta(k int, extra ...float64) ([]ThetaPoint, error) {
	return s.SweepThetaContext(context.Background(), k, extra...)
}

// SweepThetaContext is SweepTheta with cancellation: the context is passed
// to every per-threshold TopK call, so an expired deadline or a dropped
// client aborts the sweep between (or inside) thresholds with ctx.Err().
func (s *Session) SweepThetaContext(ctx context.Context, k int, extra ...float64) ([]ThetaPoint, error) {
	if k <= 0 {
		return nil, fmt.Errorf("nbindex: non-positive k %d", k)
	}
	thetas := append(append([]float64(nil), s.parts[0].grid...), extra...)
	sort.Float64s(thetas)
	// Deduplicate.
	out := thetas[:0]
	for i, t := range thetas {
		if i == 0 || t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	thetas = out
	points := make([]ThetaPoint, 0, len(thetas))
	for _, theta := range thetas {
		if theta < 0 {
			return nil, fmt.Errorf("nbindex: negative theta %v in sweep", theta)
		}
		res, err := s.TopKContext(ctx, theta, k)
		if err != nil {
			return nil, err
		}
		points = append(points, ThetaPoint{
			Theta:      theta,
			Power:      res.Power,
			CR:         res.CompressionRatio(),
			AnswerSize: len(res.Answer),
		})
	}
	return points, nil
}

// SuggestTheta picks the knee of a sweep curve: the threshold after which
// additional radius buys little additional coverage. It maximizes the
// distance between the normalized coverage curve and the diagonal — the
// standard knee heuristic. Returns the suggested point and the full curve.
func SuggestTheta(points []ThetaPoint) (ThetaPoint, error) {
	if len(points) == 0 {
		return ThetaPoint{}, fmt.Errorf("nbindex: empty sweep")
	}
	maxTheta := points[len(points)-1].Theta
	maxPower := 0.0
	for _, p := range points {
		if p.Power > maxPower {
			maxPower = p.Power
		}
	}
	if maxTheta == 0 || maxPower == 0 {
		return points[0], nil
	}
	best, bestGap := points[0], -1.0
	for _, p := range points {
		gap := p.Power/maxPower - p.Theta/maxTheta
		if gap > bestGap {
			best, bestGap = p, gap
		}
	}
	return best, nil
}
