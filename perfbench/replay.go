package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"graphrep"
	"graphrep/internal/server"
)

// outcome is what one op answered, in a form the HTTP and the direct passes
// both produce.
type outcome struct {
	status   int // HTTP status; 0 when the request itself failed
	query    server.QueryResponse
	insertID int32
	latency  time.Duration // client round trip (HTTP only)
	bytes    int           // response body size (HTTP only)
}

// counts are the exact work counters of one measured phase, indexed by the
// c* constants. Two runs of one seed must produce identical counts; that is
// what makes the timing steady.
type counts [numCounts]int64

const (
	cThresholdTests = iota
	cPrunedTests
	cFullSolves
	cCacheHits
	cCacheMisses
	cDistances
	cSessionInits
	cQueries
	cPQPops
	cVerifiedLeaves
	cCandidateScans
	cInserts
	cPruneEmbedding
	cPruneRowMin
	cPruneGreedy
	cPruneDual
	numCounts
)

// countNames is the order counts print and compare in.
var countNames = [numCounts]string{"threshold_tests", "pruned_tests", "full_solves", "cache_hits",
	"cache_misses", "distance_computations", "session_inits", "queries", "pq_pops", "verified_leaves",
	"candidate_scans", "inserts", "prune_embedding", "prune_rowmin", "prune_greedy", "prune_dual"}

// engineCounts reads the engine-side counters; session inits and inserts
// are counted by the caller.
func engineCounts(eng *graphrep.Engine) counts {
	s := eng.Telemetry().Snapshot()
	var c counts
	c[cThresholdTests] = int64(s.QueryTotals.ExactDistances + s.QueryTotals.PrunedDistances)
	c[cPrunedTests] = int64(s.QueryTotals.PrunedDistances)
	c[cFullSolves] = s.Prune.FullSolves()
	c[cCacheHits] = s.CacheHits
	c[cCacheMisses] = s.CacheMisses
	c[cDistances] = s.DistanceComputations
	c[cQueries] = s.Queries
	c[cPQPops] = int64(s.QueryTotals.PQPops)
	c[cVerifiedLeaves] = int64(s.QueryTotals.VerifiedLeaves)
	c[cCandidateScans] = int64(s.QueryTotals.CandidateScans)
	c[cPruneEmbedding] = s.Prune.Embedding
	c[cPruneRowMin] = s.Prune.RowMin - s.Prune.RowMinSolved
	c[cPruneGreedy] = s.Prune.Greedy
	c[cPruneDual] = s.Prune.Dual
	return c
}

func (c counts) minus(o counts) counts {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

// firstDiff names the first counter that differs between c and o, or "".
func (c counts) firstDiff(o counts) string {
	for i := range c {
		if c[i] != o[i] {
			return fmt.Sprintf("%s: %d vs %d", countNames[i], c[i], o[i])
		}
	}
	return ""
}

func (c counts) String() string {
	var buf bytes.Buffer
	for i, v := range c {
		if i > 0 {
			buf.WriteByte(' ')
		}
		fmt.Fprintf(&buf, "%s=%d", countNames[i], v)
	}
	return buf.String()
}

// pass is one replay of a plan's measured ops.
type pass struct {
	outcomes []outcome
	wall     time.Duration
	cpu      time.Duration
	counts   counts
	// Go runtime deltas over the measured phase.
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
	heapMB     uint64    // live heap after the collection that starts the pass
	probe      probeTime // speed probe runs between the ops, if any
}

// phase brackets a measured phase with the process-wide readings.
type phase struct {
	start  time.Time
	cpu    time.Duration
	mem    runtime.MemStats
	counts counts
}

func beginPhase(eng *graphrep.Engine) phase {
	runtime.GC() // start every pass from the same heap, not setup garbage
	var p phase
	runtime.ReadMemStats(&p.mem)
	p.cpu = cpuTime()
	p.counts = engineCounts(eng)
	p.start = time.Now()
	return p
}

func (p phase) end(eng *graphrep.Engine, res *pass) {
	res.wall = time.Since(p.start)
	res.cpu = cpuTime() - p.cpu
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	res.allocBytes = m.TotalAlloc - p.mem.TotalAlloc
	res.gcCycles = m.NumGC - p.mem.NumGC
	res.gcPause = time.Duration(m.PauseTotalNs - p.mem.PauseTotalNs)
	res.heapMB = p.mem.HeapAlloc >> 20
	res.counts = engineCounts(eng).minus(p.counts)
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// opHeader carries the op index to the tracing middleware of pass A.
const opHeader = "X-Perfbench-Op"

// send issues one op over the keep-alive connection and reads the full
// body. op < 0 sends no op header (warm-up and untraced ops).
func (s *served) send(o op, opIdx int) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, s.url+o.path(), bytes.NewReader(o.body))
	if err != nil {
		return 0, nil, err
	}
	if opIdx >= 0 {
		req.Header.Set(opHeader, strconv.Itoa(opIdx))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// warmupHTTP sends the plan's warm-up ops; any failure aborts the run.
func (s *served) warmupHTTP(pl plan) error {
	for _, o := range pl.warmup {
		status, body, err := s.send(o, -1)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", o.path(), err)
		}
		if status/100 != 2 {
			return fmt.Errorf("warm-up %s: status %d: %s", o.path(), status, body)
		}
	}
	return nil
}

// httpPass replays the measured ops over HTTP, one at a time from one
// client (a closed loop). Bodies are decoded after the clock stops. With a
// tracer, each op carries its index so the middleware can attach the
// handler span, and the client records the round-trip span. With a speed
// probe, it runs once after every op, outside the op's latency.
func (s *served) httpPass(pl plan, tr *tracer) pass {
	res := pass{outcomes: make([]outcome, len(pl.ops))}
	bodies := make([][]byte, len(pl.ops))
	ph := beginPhase(s.eng)
	for i, o := range pl.ops {
		idx := -1
		if tr != nil {
			idx = i
		}
		start := time.Now()
		status, body, err := s.send(o, idx)
		end := time.Now()
		if tr != nil {
			tr.record(i, "client.roundtrip", "", start, end)
		}
		if err != nil {
			status = 0
		}
		res.outcomes[i] = outcome{status: status, latency: end.Sub(start), bytes: len(body)}
		bodies[i] = body
		if s.probe != nil {
			s.probe.run(1, &res.probe)
		}
	}
	ph.end(s.eng, &res)
	res.counts[cSessionInits] = predictedInits(pl)
	for i, o := range pl.ops {
		out := &res.outcomes[i]
		if out.status/100 != 2 {
			continue
		}
		var err error
		if o.insert != nil {
			var r server.InsertResponse
			err = json.Unmarshal(bodies[i], &r)
			out.insertID = r.ID
			res.counts[cInserts]++
		} else {
			err = json.Unmarshal(bodies[i], &out.query)
		}
		if err != nil {
			out.status = 0
		}
	}
	return res
}

// predictedInits counts the session initializations the server performs
// during the measured ops: its cache holds one session per spec and an
// insert drops them all.
func predictedInits(pl plan) int64 {
	seen := map[string]bool{}
	var n int64
	for i, o := range append(append([]op(nil), pl.warmup...), pl.ops...) {
		if o.insert != nil {
			clear(seen)
			continue
		}
		key, _ := json.Marshal(o.query.Relevance)
		if !seen[string(key)] {
			seen[string(key)] = true
			if i >= len(pl.warmup) {
				n++
			}
		}
	}
	return n
}

// direct replays ops against the engine the way the server's handlers do:
// a spec→session map cleared on insert, relevance compiled on the current
// database, graphs built from the insert payload.
type direct struct {
	eng      *graphrep.Engine
	sessions map[string]*graphrep.Session
	inits    int64
	inserts  int64
	tr       *tracer
	relevant []int // RelevantCount of each session opened while traced
}

func newDirect(eng *graphrep.Engine, tr *tracer) *direct {
	return &direct{eng: eng, sessions: map[string]*graphrep.Session{}, tr: tr}
}

// do runs one op; opIdx < 0 records no spans.
func (d *direct) do(o op, opIdx int) (outcome, error) {
	ctx := context.Background()
	rec := func(name string, start, end time.Time) {
		if d.tr != nil && opIdx >= 0 {
			d.tr.record(opIdx, name, "engine.op", start, end)
		}
	}
	opStart := time.Now()
	var out outcome
	if o.insert != nil {
		g, err := buildGraph(*o.insert, graphrep.ID(d.eng.Database().Len()))
		if err != nil {
			return out, err
		}
		start := time.Now()
		err = d.eng.Insert(g)
		rec("shard.insert", start, time.Now())
		if err != nil {
			return out, err
		}
		clear(d.sessions)
		d.inserts++
		out = outcome{status: http.StatusOK, insertID: int32(g.ID())}
	} else {
		key, _ := json.Marshal(o.query.Relevance)
		sess, ok := d.sessions[string(key)]
		if !ok {
			rel, err := compile(d.eng.Database(), o.query.Relevance)
			if err != nil {
				return out, err
			}
			start := time.Now()
			sess, err = d.eng.NewSessionContext(ctx, rel)
			rec("nbindex.session_init", start, time.Now())
			if err != nil {
				return out, err
			}
			d.sessions[string(key)] = sess
			d.inits++
			if opIdx >= 0 {
				d.relevant = append(d.relevant, sess.RelevantCount())
			}
		}
		start := time.Now()
		r, err := sess.TopKContext(ctx, o.query.Theta, o.query.K)
		rec("nbindex.topk", start, time.Now())
		if err != nil {
			return out, err
		}
		out = outcome{status: http.StatusOK, query: toResponse(r)}
	}
	if d.tr != nil && opIdx >= 0 {
		d.tr.record(opIdx, "engine.op", "", opStart, time.Now())
	}
	return out, nil
}

// directPass replays the measured ops against the engine (pass B).
func (d *direct) pass(pl plan) (pass, error) {
	res := pass{outcomes: make([]outcome, len(pl.ops))}
	ph := beginPhase(d.eng)
	inits, inserts := d.inits, d.inserts
	for i, o := range pl.ops {
		out, err := d.do(o, i)
		if err != nil {
			return res, fmt.Errorf("direct op %d: %w", i, err)
		}
		res.outcomes[i] = out
	}
	ph.end(d.eng, &res)
	res.counts[cSessionInits] = d.inits - inits
	res.counts[cInserts] = d.inserts - inserts
	return res, nil
}

// compile turns a spec into a relevance function exactly as the server does,
// for the kinds the workloads send.
func compile(db *graphrep.Database, spec server.RelevanceSpec) (graphrep.Relevance, error) {
	switch spec.Kind {
	case "quartile":
		return graphrep.FirstQuartileRelevance(db, spec.Dims), nil
	case "threshold":
		score := graphrep.DimensionScore(spec.Dims)
		tau := spec.Tau
		return func(f []float64) bool { return score(f) >= tau }, nil
	case "weighted":
		return graphrep.WeightedRelevance(spec.Weights, spec.Tau), nil
	}
	return nil, fmt.Errorf("unknown relevance kind %q", spec.Kind)
}

// buildGraph assembles an insert payload into a graph as the server does.
func buildGraph(r server.InsertRequest, id graphrep.ID) (*graphrep.Graph, error) {
	b := graphrep.NewBuilder(len(r.Labels))
	for _, l := range r.Labels {
		b.AddVertex(graphrep.Label(l))
	}
	for _, e := range r.Edges {
		b.AddEdge(e[0], e[1], graphrep.Label(e[2]))
	}
	b.SetFeatures(r.Features)
	return b.Build(id)
}

// toResponse renders a result the way /query does.
func toResponse(r *graphrep.Result) server.QueryResponse {
	resp := server.QueryResponse{
		Gains:    r.Gains,
		Power:    r.Power,
		Covered:  r.Covered,
		Relevant: r.Relevant,
		CR:       r.CompressionRatio(),
	}
	for _, id := range r.Answer {
		resp.Answer = append(resp.Answer, int32(id))
	}
	return resp
}
