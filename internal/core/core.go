// Package core implements the paper's primary contribution: top-k
// representative queries over graph databases (Definition 1).
//
// Given a query-time relevance function over feature vectors, a distance
// threshold θ and a budget k, the goal is the k-subset A of the relevant
// graphs L_q maximizing the representative power
//
//	π_θ(S) = |∪_{g∈S} N_θ(g)| / |L_q|
//
// The problem is NP-hard (Set Cover) and π is monotone submodular, so the
// greedy algorithm achieves the best possible polynomial-time approximation
// of (1 − 1/e). This package contains the query model, the baseline greedy
// of Alg. 1 with several neighborhood-initialization strategies, a
// brute-force optimum for validation, and the traditional score-only top-k
// the qualitative experiment (Fig. 7) compares against.
//
// The NB-Index-accelerated greedy lives in internal/nbindex.
package core

import (
	"fmt"
	"sort"

	"graphrep/internal/bitset"
	"graphrep/internal/graph"
	"graphrep/internal/metric"
)

// Relevance classifies a graph as relevant from its feature vector: the
// paper's q(·) with {−1, 1} replaced by the idiomatic bool.
type Relevance func(features []float64) bool

// Query is one top-k representative query.
type Query struct {
	Relevance Relevance
	Theta     float64
	K         int
}

// Validate reports whether the query is well-formed.
func (q Query) Validate() error {
	if q.Relevance == nil {
		return fmt.Errorf("core: nil relevance function")
	}
	if q.Theta < 0 {
		return fmt.Errorf("core: negative theta %v", q.Theta)
	}
	if q.K <= 0 {
		return fmt.Errorf("core: non-positive k %d", q.K)
	}
	return nil
}

// Result is the answer to a top-k representative query.
type Result struct {
	// Answer lists the chosen graphs in pick order. It may be shorter than
	// k when every remaining candidate has zero marginal gain (adding such
	// graphs cannot increase π and would only dilute the compression ratio).
	Answer []graph.ID
	// Power is π_θ(Answer).
	Power float64
	// Covered is |∪ N_θ(g)| over the answer set.
	Covered int
	// Relevant is |L_q|.
	Relevant int
	// Gains records the marginal coverage gain of each pick.
	Gains []int
}

// CompressionRatio is |N_θ(A)| / |A| (Table 4). Zero for an empty answer.
func (r *Result) CompressionRatio() float64 {
	if len(r.Answer) == 0 {
		return 0
	}
	return float64(r.Covered) / float64(len(r.Answer))
}

// Relevant returns L_q: the IDs of the graphs classified relevant by q.
func Relevant(db *graph.Database, q Relevance) []graph.ID {
	var out []graph.ID
	for i, n := 0, db.Len(); i < n; i++ {
		if q(db.Features(graph.ID(i))) {
			out = append(out, graph.ID(i))
		}
	}
	return out
}

// Neighborhoods holds the θ-neighborhood bitsets of every relevant graph,
// each over positions in the relevant list. It is the state Alg. 1 operates
// on; how it is initialized (full pairwise scan, metric range index, or
// vantage candidates) is the difference between the baseline engines.
type Neighborhoods struct {
	Rel  []graph.ID // the relevant graphs, ascending
	Pos  []int      // database ID -> position in Rel, or -1
	Sets []*bitset.Set
}

// NewNeighborhoods allocates empty neighborhood state for the relevant set.
func NewNeighborhoods(dbLen int, rel []graph.ID) *Neighborhoods {
	nb := &Neighborhoods{
		Rel:  rel,
		Pos:  make([]int, dbLen),
		Sets: make([]*bitset.Set, len(rel)),
	}
	for i := range nb.Pos {
		nb.Pos[i] = -1
	}
	for i, id := range rel {
		nb.Pos[id] = i
		nb.Sets[i] = bitset.New(len(rel))
		nb.Sets[i].Add(i) // every graph represents itself
	}
	return nb
}

// PairwiseNeighborhoods computes exact θ-neighborhoods with a full pairwise
// scan over the relevant graphs: |L|·(|L|−1)/2 distance computations — the
// quadratic bottleneck of the simple greedy approach (§5).
func PairwiseNeighborhoods(db *graph.Database, m metric.Metric, rel []graph.ID, theta float64) *Neighborhoods {
	nb := NewNeighborhoods(db.Len(), rel)
	for i := range rel {
		for j := i + 1; j < len(rel); j++ {
			if m.Distance(rel[i], rel[j]) <= theta {
				nb.Sets[i].Add(j)
				nb.Sets[j].Add(i)
			}
		}
	}
	return nb
}

// RangeNeighborhoods computes θ-neighborhoods with one range query per
// relevant graph against a metric index (C-tree or M-tree style): the
// strategy of the paper's indexing baselines in Figs. 2(b) and 5(i–k).
func RangeNeighborhoods(db *graph.Database, rs metric.RangeSearcher, rel []graph.ID, theta float64) *Neighborhoods {
	nb := NewNeighborhoods(db.Len(), rel)
	for i, id := range rel {
		for _, hit := range rs.Range(id, theta) {
			if p := nb.Pos[hit]; p >= 0 {
				nb.Sets[i].Add(p)
			}
		}
	}
	return nb
}

// Greedy runs the greedy of Alg. 1 on initialized neighborhoods: repeatedly
// add the graph with the maximum marginal gain in coverage. Ties break
// toward the lower graph ID so results are deterministic. Picks stop early
// when no candidate improves coverage.
func Greedy(nb *Neighborhoods, k int) *Result {
	res := &Result{Relevant: len(nb.Rel)}
	if len(nb.Rel) == 0 {
		return res
	}
	covered := bitset.New(len(nb.Rel))
	inAnswer := make([]bool, len(nb.Rel))
	for len(res.Answer) < k {
		best, bestGain := -1, 0
		for i := range nb.Rel {
			if inAnswer[i] {
				continue
			}
			if gain := nb.Sets[i].CountAndNot(covered); gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			break
		}
		inAnswer[best] = true
		covered.Or(nb.Sets[best])
		res.Answer = append(res.Answer, nb.Rel[best])
		res.Gains = append(res.Gains, bestGain)
	}
	res.Covered = covered.Count()
	res.Power = float64(res.Covered) / float64(res.Relevant)
	return res
}

// BaselineGreedy is the end-to-end simple greedy (Alg. 1): quadratic
// pairwise neighborhood initialization followed by greedy selection.
func BaselineGreedy(db *graph.Database, m metric.Metric, q Query) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	rel := Relevant(db, q.Relevance)
	nb := PairwiseNeighborhoods(db, m, rel, q.Theta)
	return Greedy(nb, q.K), nil
}

// RangeGreedy is the baseline greedy with neighborhoods initialized through
// a metric range index instead of a pairwise scan.
func RangeGreedy(db *graph.Database, rs metric.RangeSearcher, q Query) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	rel := Relevant(db, q.Relevance)
	nb := RangeNeighborhoods(db, rs, rel, q.Theta)
	return Greedy(nb, q.K), nil
}

// Power computes π_θ(answer) for an arbitrary answer set, issuing
// |answer|·|L_q| distance computations. Used to evaluate answer sets
// produced by other models (DIV, DisC) under the representative-power
// semantics of Table 4.
func Power(db *graph.Database, m metric.Metric, rel []graph.ID, answer []graph.ID, theta float64) (power float64, covered int) {
	if len(rel) == 0 {
		return 0, 0
	}
	pos := make(map[graph.ID]int, len(rel))
	for i, id := range rel {
		pos[id] = i
	}
	cov := bitset.New(len(rel))
	for _, a := range answer {
		for i, id := range rel {
			if a == id || m.Distance(a, id) <= theta {
				cov.Add(i)
			}
		}
	}
	covered = cov.Count()
	return float64(covered) / float64(len(rel)), covered
}

// BruteForceOptimal enumerates all k-subsets of the relevant graphs and
// returns one maximizing π. Exponential; only for validating the greedy's
// (1 − 1/e) guarantee on small instances.
func BruteForceOptimal(db *graph.Database, m metric.Metric, q Query) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	rel := Relevant(db, q.Relevance)
	nb := PairwiseNeighborhoods(db, m, rel, q.Theta)
	res := &Result{Relevant: len(rel)}
	if len(rel) == 0 {
		return res, nil
	}
	k := q.K
	if k > len(rel) {
		k = len(rel)
	}
	idx := make([]int, k)
	best := -1
	var bestSet []int
	var rec func(start, depth int, covered *bitset.Set)
	rec = func(start, depth int, covered *bitset.Set) {
		if depth == k {
			if c := covered.Count(); c > best {
				best = c
				bestSet = append(bestSet[:0], idx[:depth]...)
			}
			return
		}
		for i := start; i < len(rel); i++ {
			idx[depth] = i
			next := covered.Clone()
			next.Or(nb.Sets[i])
			rec(i+1, depth+1, next)
		}
	}
	rec(0, 0, bitset.New(len(rel)))
	for _, i := range bestSet {
		res.Answer = append(res.Answer, rel[i])
	}
	res.Covered = best
	res.Power = float64(best) / float64(len(rel))
	return res, nil
}

// AssignRepresentatives explains an answer set: every relevant graph within
// θ of the answer is assigned to its nearest answer member (ties toward the
// earlier member). The result maps each answer member to the sorted graphs
// it stands for (including itself). Costs |answer|·|rel| distance
// computations.
func AssignRepresentatives(db *graph.Database, m metric.Metric, rel []graph.ID, answer []graph.ID, theta float64) map[graph.ID][]graph.ID {
	out := make(map[graph.ID][]graph.ID, len(answer))
	for _, a := range answer {
		out[a] = nil
	}
	for _, g := range rel {
		best := graph.ID(-1)
		bestD := 0.0
		for _, a := range answer {
			d := m.Distance(a, g)
			if d > theta {
				continue
			}
			if best < 0 || d < bestD {
				best, bestD = a, d
			}
		}
		if best >= 0 {
			out[best] = append(out[best], g)
		}
	}
	for a := range out {
		sort.Slice(out[a], func(i, j int) bool { return out[a][i] < out[a][j] })
	}
	return out
}

// Score ranks a graph for traditional top-k queries.
type Score func(features []float64) float64

// TraditionalTopK returns the k highest-scoring graphs — the classical
// formulation whose redundancy motivates the paper (Fig. 1(a), Fig. 7).
// Ties break toward lower IDs.
func TraditionalTopK(db *graph.Database, score Score, k int) []graph.ID {
	type scored struct {
		id graph.ID
		s  float64
	}
	all := make([]scored, 0, db.Len())
	for i, n := 0, db.Len(); i < n; i++ {
		all = append(all, scored{graph.ID(i), score(db.Features(graph.ID(i)))})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].s != all[j].s {
			return all[i].s > all[j].s
		}
		return all[i].id < all[j].id
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]graph.ID, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].id
	}
	return out
}

// FirstQuartileRelevance returns the relevance function used throughout the
// paper's experiments (§8.2.1): a graph is relevant when its feature-space
// score falls within the top quartile of database scores. The score is the
// mean of the selected feature dimensions (all dimensions when dims is
// empty).
func FirstQuartileRelevance(db *graph.Database, dims []int) Relevance {
	score := DimensionScore(dims)
	if db.Len() == 0 {
		return func([]float64) bool { return false }
	}
	scores := make([]float64, db.Len())
	for i := range scores {
		scores[i] = score(db.Features(graph.ID(i)))
	}
	sorted := append([]float64(nil), scores...)
	sort.Float64s(sorted)
	cut := sorted[len(sorted)*3/4]
	return func(f []float64) bool { return score(f) >= cut }
}

// TopicScore is the query function of Table 1, example 2: the (soft)
// Jaccard similarity between a graph's topic-weight vector and a query
// topic set, Σ min(gᵢ, tᵢ) / Σ max(gᵢ, tᵢ) with t the indicator vector of
// topics. Zero when both sides are empty.
func TopicScore(topics []int) Score {
	return func(f []float64) float64 {
		t := make([]float64, len(f))
		for _, i := range topics {
			if i >= 0 && i < len(t) {
				t[i] = 1
			}
		}
		num, den := 0.0, 0.0
		for i, x := range f {
			if x < t[i] {
				num += x
				den += t[i]
			} else {
				num += t[i]
				den += x
			}
		}
		if den == 0 {
			return 0
		}
		return num / den
	}
}

// TopicRelevance classifies a graph as relevant when its TopicScore against
// the query topics reaches tau — the cascade query of Table 1, example 2.
func TopicRelevance(topics []int, tau float64) Relevance {
	score := TopicScore(topics)
	return func(f []float64) bool { return score(f) >= tau }
}

// WeightedScore is the query function of Table 1, example 3: the weighted
// sum wᵀ·g over the feature vector (e.g. recency-weighted occurrence
// counts). Dimensions beyond len(w) contribute nothing.
func WeightedScore(w []float64) Score {
	return func(f []float64) float64 {
		s := 0.0
		for i, x := range f {
			if i >= len(w) {
				break
			}
			s += w[i] * x
		}
		return s
	}
}

// WeightedRelevance classifies a graph as relevant when its WeightedScore
// reaches tau.
func WeightedRelevance(w []float64, tau float64) Relevance {
	score := WeightedScore(w)
	return func(f []float64) bool { return score(f) >= tau }
}

// DimensionScore scores a feature vector as the mean over the chosen
// dimensions (§8.2.1's Σ g_i / d), or over all dimensions when dims is
// empty, nil or not.
func DimensionScore(dims []int) Score {
	return func(f []float64) float64 {
		if len(f) == 0 {
			return 0
		}
		if len(dims) == 0 {
			s := 0.0
			for _, x := range f {
				s += x
			}
			return s / float64(len(f))
		}
		s := 0.0
		for _, d := range dims {
			s += f[d]
		}
		return s / float64(len(dims))
	}
}
