package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"graphrep"
	"graphrep/internal/server"
)

// op is one request of a workload: exactly one of query and insert is set.
// body is its pre-encoded JSON, so the measured loop does no encoding.
type op struct {
	query  *server.QueryRequest
	insert *server.InsertRequest
	body   []byte
}

func (o op) path() string {
	if o.insert != nil {
		return "/insert"
	}
	return "/query"
}

// plan is everything a workload sends: untimed warm-up ops, then the
// measured ops. It is a pure function of the corpus and the seed.
type plan struct {
	warmup []op
	ops    []op
}

// thetas are the query radii the workloads draw θ from: about the 0.5%, 1%
// and 2% quantiles of the dud corpus's pairwise star distances, low enough
// that a representative covers a family, not the corpus. They are fixed
// distances rather than each seed's own quantiles: distances are integers
// and the low quantiles of one corpus swing with its family sizes (the 1%
// quantile ranges 4–10 over seeds 1–8), which would make the query radius,
// and so the work per op, differ from seed to seed.
var thetas = []float64{4, 7, 12}

// planner draws specs, θ and k for one workload from a seeded source.
type planner struct {
	rng  *rand.Rand
	db   *graphrep.Database
	seen map[string]bool
}

func newPlanner(db *graphrep.Database, seed int64) *planner {
	return &planner{rng: rand.New(rand.NewSource(seed)), db: db, seen: map[string]bool{}}
}

func samplePairs(n int, rng *rand.Rand, count int) [][2]graphrep.ID {
	out := make([][2]graphrep.ID, 0, count)
	for len(out) < count {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			out = append(out, [2]graphrep.ID{graphrep.ID(a), graphrep.ID(b)})
		}
	}
	return out
}

// dims draws a sorted subset of 2–5 feature dimensions.
func (p *planner) dims() []int {
	perm := p.rng.Perm(p.db.FeatureDim())
	d := append([]int(nil), perm[:2+p.rng.Intn(4)]...)
	sort.Ints(d)
	return d
}

// scoreCut returns the score above which a fraction frac of the corpus lies,
// so a threshold spec selects a known share of graphs whatever the seed.
func (p *planner) scoreCut(score graphrep.Score, frac float64) float64 {
	n := p.db.Len()
	s := make([]float64, n)
	for i := range s {
		s[i] = score(p.db.Graph(graphrep.ID(i)).Features())
	}
	sort.Float64s(s)
	return s[int((1-frac)*float64(n-1))]
}

// spec draws a relevance spec of the given kind selecting about frac of the
// corpus (quartile always selects a quarter). It never repeats a spec.
func (p *planner) spec(kind string, frac float64) server.RelevanceSpec {
	for {
		s := server.RelevanceSpec{Kind: kind}
		switch kind {
		case "quartile":
			s.Dims = p.dims()
		case "threshold":
			s.Dims = p.dims()
			s.Tau = p.scoreCut(graphrep.DimensionScore(s.Dims), frac)
		case "weighted":
			s.Weights = make([]float64, p.db.FeatureDim())
			for i := range s.Weights {
				s.Weights[i] = float64(p.rng.Intn(1000)) / 1000
			}
			s.Tau = p.scoreCut(graphrep.WeightedScore(s.Weights), frac)
		}
		key, _ := json.Marshal(s)
		if !p.seen[string(key)] {
			p.seen[string(key)] = true
			return s
		}
	}
}

func queryOp(spec server.RelevanceSpec, theta float64, k int) op {
	q := &server.QueryRequest{Relevance: spec, Theta: theta, K: k}
	body, _ := json.Marshal(q)
	return op{query: q, body: body}
}

func insertOp(g *graphrep.Graph) op {
	r := &server.InsertRequest{Features: g.Features()}
	for _, l := range g.VertexLabels() {
		r.Labels = append(r.Labels, uint32(l))
	}
	for _, e := range g.Edges() {
		r.Edges = append(r.Edges, [3]int{e.U, e.V, int(e.Label)})
	}
	body, _ := json.Marshal(r)
	return op{insert: r, body: body}
}

// makePlan builds the op list of workload w: nops measured ops over db,
// inserting from held (ingest only).
func makePlan(w string, db *graphrep.Database, held []*graphrep.Graph, nops int, seed int64) (plan, error) {
	p := newPlanner(db, seed)
	var pl plan
	var err error
	switch w {
	case "refine":
		pl = p.refine(nops)
	case "explore":
		pl = p.explore(nops)
	case "ingest":
		pl, err = p.ingest(nops, held)
	default:
		err = fmt.Errorf("unknown workload %q", w)
	}
	return pl, err
}

// specKinds is the kind mix of the fixed specs refine and ingest open.
var specKinds = []string{"quartile", "threshold", "weighted"}

// fixedSpecs draws n fixed specs, cycling through specKinds; threshold and
// weighted ones select a fifth of the corpus. A query's cost depends on
// which structural families its relevant set holds; cycling through many
// specs averages that over the seed's draws.
func (p *planner) fixedSpecs(n int) []server.RelevanceSpec {
	specs := make([]server.RelevanceSpec, n)
	for i := range specs {
		specs[i] = p.spec(specKinds[i%len(specKinds)], 0.2)
	}
	return specs
}

// refineSpecs and ingestSpecs are how many fixed specs the two workloads
// cycle through.
const refineSpecs, ingestSpecs = 48, 24

// refine opens the fixed sessions, then walks each one's θ in bounded ±10%
// steps at k=10, round-robin across the sessions.
func (p *planner) refine(nops int) plan {
	specs := p.fixedSpecs(refineSpecs)
	base := make([]float64, len(specs))
	var pl plan
	for i, s := range specs {
		base[i] = thetas[1+i%2]
		pl.warmup = append(pl.warmup, queryOp(s, base[i], 10))
	}
	theta := append([]float64(nil), base...)
	for i := 0; i < nops; i++ {
		s := i % len(specs)
		t := theta[s] * (0.9 + 0.2*p.rng.Float64())
		theta[s] = min(max(t, base[s]/2), base[s]*2)
		pl.ops = append(pl.ops, queryOp(specs[s], theta[s], 10))
	}
	return pl
}

// explore sends a spec never seen before with every op, so each one pays
// session initialization and a first search over a new relevant set. Kind,
// θ, k and the share of the corpus a threshold or weighted spec selects
// cycle through all 54 combinations in a fixed order, so every seed sends
// the same mix and only the specs' dimensions and weights are drawn.
func (p *planner) explore(nops int) plan {
	kinds := []string{"threshold", "weighted", "quartile"}
	ks := []int{5, 10, 20}
	fracs := []float64{0.1, 0.2}
	next := func(i int) op {
		s := p.spec(kinds[i%len(kinds)], fracs[i/27%len(fracs)])
		return queryOp(s, thetas[i/3%len(thetas)], ks[i/9%len(ks)])
	}
	var pl plan
	for i := 0; i < 3; i++ {
		pl.warmup = append(pl.warmup, next(i))
	}
	for i := 0; i < nops; i++ {
		pl.ops = append(pl.ops, next(i))
	}
	return pl
}

// ingestGroup is the insert:query schedule: one insert, then three queries.
const ingestGroup = 4

// ingest repeats one insert of a held-back graph, in an order the seed
// shuffles, followed by three queries taking the fixed specs round-robin.
// nops is rounded up to whole groups, so the run ends with queries on the
// final database.
func (p *planner) ingest(nops int, held []*graphrep.Graph) (plan, error) {
	groups := (nops + ingestGroup - 1) / ingestGroup
	if groups > len(held) {
		return plan{}, fmt.Errorf("ingest: %d inserts planned, %d graphs held back", groups, len(held))
	}
	specs := p.fixedSpecs(ingestSpecs)
	theta := thetas[1]
	var pl plan
	for _, s := range specs {
		pl.warmup = append(pl.warmup, queryOp(s, theta, 10))
	}
	order := p.rng.Perm(len(held))
	q := 0
	for g := 0; g < groups; g++ {
		pl.ops = append(pl.ops, insertOp(held[order[g]]))
		for i := 1; i < ingestGroup; i++ {
			pl.ops = append(pl.ops, queryOp(specs[q%len(specs)], theta, 10))
			q++
		}
	}
	return pl, nil
}
