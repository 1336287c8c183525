// Package server exposes a graphrep engine over HTTP with a small JSON API,
// so non-Go clients can issue top-k representative queries against an
// indexed graph database. Endpoints:
//
//	GET  /stats                  database and index statistics
//	POST /query                  top-k representative query
//	POST /sweep                  θ sweep ("zoom level" explorer)
//	GET  /graph?id=N             one graph (labels, edges, features)
//	POST /insert                 append one graph, extend the index
//	GET  /metrics                Prometheus text exposition of all metrics
//	GET  /debug/pprof/...        runtime profiles (with Options.Pprof)
//
// Relevance functions arrive as declarative specs (quartile / threshold /
// topics / weighted) rather than code, mirroring the query functions of
// Table 1.
//
// # Concurrency
//
// Queries run in parallel: sessions are safe for concurrent TopK calls, so
// the server takes only read locks on the query path. Locking is per shard —
// one RWMutex per index shard. /insert is the sole writer, and an insert
// only ever extends the last shard (plus the copy-on-write database, which
// tolerates concurrent readers by construction), so it takes just that
// shard's write lock: queries that touch every shard (/query, /sweep,
// /stats, /metrics) wait only for the insert itself, while reads scoped to
// one earlier shard (/graph) are never blocked by an insert at all. Locks
// are always acquired in ascending shard order.
//
// Every /query and /sweep runs under its request's context: a client that
// disconnects mid-query aborts the in-flight search (499 recorded), and
// Options.QueryTimeout adds a per-request deadline (504 on expiry), so slow
// queries cannot pile up behind dead connections.
//
// # Observability
//
// Every request is counted and timed per endpoint, and an in-flight gauge
// tracks concurrency. The HTTP metrics register on the engine's telemetry
// registry, so GET /metrics exposes the full process picture — HTTP traffic,
// distance computations, cache effectiveness, and the NB-Index's per-query
// work histograms — in one scrape.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"graphrep"
	"graphrep/internal/telemetry"
)

// Options configure optional server features.
type Options struct {
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
	// QueryTimeout bounds each /query and /sweep request: the request
	// context gets this deadline, and a query that exceeds it is aborted
	// inside the engine and answered with 504. Zero disables the timeout.
	// Independently of the timeout, a dropped client connection cancels the
	// request context and aborts the in-flight query.
	QueryTimeout time.Duration
}

// statusClientClosedRequest is nginx's non-standard 499: the client went
// away before the response was ready, so the aborted query has no one to
// answer; recorded so the error counter distinguishes it from timeouts.
const statusClientClosedRequest = 499

// maxBodyBytes caps a POST request body. The largest legitimate bodies are
// /insert graphs of a few thousand edges, far below it; anything longer is
// answered 413 before it is buffered.
const maxBodyBytes = 1 << 20

// Server serves one engine. Sessions are cached per relevance spec so that
// repeated queries (the interactive refinement pattern) hit the fast path.
// Create at most one Server per engine: the HTTP metrics register on the
// engine's telemetry registry under fixed names.
type Server struct {
	engine *graphrep.Engine // guarded by locks
	// db is safe to read without locks: the database is copy-on-write, so
	// /insert's append never mutates a snapshot a reader holds.
	db   *graphrep.Database
	opts Options

	// locks[p] is shard p's index lock: /insert extends only the last shard
	// and write-locks just locks[len-1]; query paths that consult every
	// shard read-lock all of them in ascending order, and /graph read-locks
	// only the shard owning the requested graph.
	locks []sync.RWMutex

	// sessMu guards the session cache. Lock order: locks before sessMu.
	sessMu   sync.Mutex
	sessions map[string]*sessionEntry // guarded by sessMu

	requests *telemetry.CounterVec   // graphrep_http_requests_total{endpoint}
	errors   *telemetry.CounterVec   // graphrep_http_errors_total{endpoint}
	latency  *telemetry.HistogramVec // graphrep_http_request_duration_seconds{endpoint}
	inFlight *telemetry.Gauge        // graphrep_http_in_flight_requests
}

// sessionEntry initializes its session exactly once, so concurrent first
// requests for one relevance spec share a single initialization instead of
// racing to duplicate it.
type sessionEntry struct {
	once sync.Once
	sess *graphrep.Session
	err  error
}

// latencyBuckets spans sub-millisecond cache hits to multi-second sweeps.
var latencyBuckets = telemetry.ExponentialBuckets(0.0005, 2, 14) // 0.5ms … 4s

// New wraps an engine.
func New(engine *graphrep.Engine, opts ...Options) *Server {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	reg := engine.Telemetry().Registry()
	return &Server{
		engine:   engine,
		db:       engine.Database(),
		opts:     o,
		locks:    make([]sync.RWMutex, engine.Shards()),
		sessions: make(map[string]*sessionEntry),
		requests: reg.MustCounterVec("graphrep_http_requests_total",
			"HTTP requests received, by endpoint.", "endpoint"),
		errors: reg.MustCounterVec("graphrep_http_errors_total",
			"HTTP responses with a 4xx/5xx status, by endpoint.", "endpoint"),
		latency: reg.MustHistogramVec("graphrep_http_request_duration_seconds",
			"HTTP request latency in seconds, by endpoint.", "endpoint", latencyBuckets),
		inFlight: reg.MustGauge("graphrep_http_in_flight_requests",
			"Requests currently being served."),
	}
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", s.instrument("/stats", s.handleStats))
	mux.HandleFunc("/query", s.instrument("/query", s.handleQuery))
	mux.HandleFunc("/sweep", s.instrument("/sweep", s.handleSweep))
	mux.HandleFunc("/graph", s.instrument("/graph", s.handleGraph))
	mux.HandleFunc("/insert", s.instrument("/insert", s.handleInsert))
	mux.HandleFunc("/metrics", s.instrument("/metrics", s.handleMetrics))
	if s.opts.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// statusRecorder captures the response status for the error counter.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the request middleware: per-endpoint
// request count, error count, and latency histogram, plus the process-wide
// in-flight gauge.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	requests := s.requests.With(endpoint)
	errors := s.errors.With(endpoint)
	latency := s.latency.With(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		s.inFlight.Inc()
		defer s.inFlight.Dec()
		requests.Inc()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(rec, r)
		latency.Observe(time.Since(start).Seconds())
		if rec.status >= 400 {
			errors.Inc()
		}
	}
}

// rUnlockAll releases the read locks rLockAll-style loops acquired. (The
// acquisition side stays inline at each call site so the lockguard analyzer
// sees the lock call in the function that touches guarded state.)
func (s *Server) rUnlockAll() {
	for i := range s.locks {
		s.locks[i].RUnlock()
	}
}

// handleMetrics renders the engine's full registry — HTTP, distance-layer,
// and NB-Index metrics — in the Prometheus text exposition format. The read
// locks keep the scrape consistent with respect to /insert (the index gauges
// read mutable state).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	for i := range s.locks {
		s.locks[i].RLock()
	}
	defer s.rUnlockAll()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.engine.Telemetry().WritePrometheus(w); err != nil {
		// Response already started; nothing to repair mid-stream.
		_ = err
	}
}

// InsertRequest is the /insert payload: one graph in the same shape /graph
// returns (the ID is assigned by the server).
type InsertRequest struct {
	Labels   []uint32  `json:"labels"`
	Edges    [][3]int  `json:"edges"`
	Features []float64 `json:"features"`
}

// InsertResponse reports the assigned ID.
type InsertResponse struct {
	ID int32 `json:"id"`
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req InsertRequest
	if !s.decode(w, r, &req) {
		return
	}
	// The engine's Insert extends the copy-on-write database (safe next to
	// readers) and the last shard's vantage ordering and NB-Tree (not safe
	// next to readers of that shard) — take the last shard's write lock
	// only, so queries pinned to earlier shards keep running.
	last := len(s.locks) - 1
	s.locks[last].Lock()
	defer s.locks[last].Unlock()
	id := graphrep.ID(s.db.Len())
	b := graphrep.NewBuilder(len(req.Labels))
	for _, l := range req.Labels {
		b.AddVertex(graphrep.Label(l))
	}
	for _, e := range req.Edges {
		b.AddEdge(e[0], e[1], graphrep.Label(e[2]))
	}
	b.SetFeatures(req.Features)
	g, err := b.Build(id)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := s.engine.Insert(g); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Cached sessions predate the insert and would silently miss the new
	// graph; drop them so the next query re-initializes.
	s.sessMu.Lock()
	s.sessions = make(map[string]*sessionEntry)
	s.sessMu.Unlock()
	writeJSON(w, InsertResponse{ID: int32(id)})
}

// RelevanceSpec selects graphs declaratively.
type RelevanceSpec struct {
	// Kind is "quartile", "threshold", "topics", or "weighted".
	Kind string `json:"kind"`
	// Dims restricts quartile/threshold scoring to these feature dimensions
	// (empty = all); each must lie in [0, FeatureDim), or the request is
	// answered 400.
	Dims []int `json:"dims,omitempty"`
	// Tau is the threshold for threshold/topics/weighted kinds.
	Tau float64 `json:"tau,omitempty"`
	// Topics lists query topics for the topics kind.
	Topics []int `json:"topics,omitempty"`
	// Weights holds w for the weighted kind.
	Weights []float64 `json:"weights,omitempty"`
}

// compileLocked turns a spec into a relevance function. The caller must hold
// every shard's read lock, like the rest of session initialization.
func (s *Server) compileLocked(spec RelevanceSpec) (graphrep.Relevance, error) {
	switch spec.Kind {
	case "quartile", "threshold":
		// Both score by indexing the feature vector at each dim, so a dim
		// out of range would panic inside session initialization.
		for _, d := range spec.Dims {
			if d < 0 || d >= s.db.FeatureDim() {
				return nil, fmt.Errorf("relevance dim %d outside [0, %d)", d, s.db.FeatureDim())
			}
		}
	}
	switch spec.Kind {
	case "quartile":
		return graphrep.FirstQuartileRelevance(s.db, spec.Dims), nil
	case "threshold":
		score := graphrep.DimensionScore(spec.Dims)
		tau := spec.Tau
		return func(f []float64) bool { return score(f) >= tau }, nil
	case "topics":
		return graphrep.TopicRelevance(spec.Topics, spec.Tau), nil
	case "weighted":
		return graphrep.WeightedRelevance(spec.Weights, spec.Tau), nil
	default:
		return nil, fmt.Errorf("unknown relevance kind %q", spec.Kind)
	}
}

// sessionLocked returns a cached session for the spec, creating it on first
// use. The caller must hold every shard's read lock (session initialization
// reads the whole index), which is what the Locked suffix declares to the
// lockguard analyzer.
// Concurrent first requests for one spec share a single initialization via
// the entry's once; requests for other specs are never blocked by it.
//
// Initialization runs under the first requester's context, so it dies with
// that client or its deadline (concurrent requests sharing the once then see
// the same context error). A context-cancelled entry is evicted before
// returning so the next request re-initializes instead of inheriting a
// permanently poisoned cache slot.
func (s *Server) sessionLocked(ctx context.Context, spec RelevanceSpec) (*graphrep.Session, error) {
	key, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	s.sessMu.Lock()
	e, ok := s.sessions[string(key)]
	if !ok {
		e = &sessionEntry{}
		s.sessions[string(key)] = e
	}
	s.sessMu.Unlock()
	e.once.Do(func() {
		rel, err := s.compileLocked(spec)
		if err != nil {
			e.err = err
			return
		}
		e.sess, e.err = s.engine.NewSessionContext(ctx, rel)
	})
	if e.err != nil && (errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)) {
		s.sessMu.Lock()
		if s.sessions[string(key)] == e {
			delete(s.sessions, string(key))
		}
		s.sessMu.Unlock()
	}
	return e.sess, e.err
}

// withSession runs fn on the cached session for spec while holding every
// shard's read lock. The unlock is deferred so that it also runs when the
// engine panics: net/http recovers a handler's panic, and a read lock leaked
// there would block the next /insert forever, and every read queued behind
// that writer.
func (s *Server) withSession(ctx context.Context, spec RelevanceSpec, fn func(*graphrep.Session) error) error {
	for i := range s.locks {
		s.locks[i].RLock()
	}
	defer s.rUnlockAll()
	sess, err := s.sessionLocked(ctx, spec)
	if err != nil {
		return err
	}
	return fn(sess)
}

// queryContext derives the context a query runs under: the request context
// (cancelled when the client disconnects) bounded by the configured
// per-request timeout.
func (s *Server) queryContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.opts.QueryTimeout > 0 {
		return context.WithTimeout(r.Context(), s.opts.QueryTimeout)
	}
	return r.Context(), func() {}
}

// writeQueryError maps a query failure to a status: timeouts to 504,
// client disconnects to 499 (the write is moot, but the error counter still
// records it), anything else to 400 (validation).
func writeQueryError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		httpError(w, http.StatusGatewayTimeout, "query timed out")
	case errors.Is(err, context.Canceled) && r.Context().Err() != nil:
		httpError(w, statusClientClosedRequest, "client closed request")
	default:
		httpError(w, http.StatusBadRequest, err.Error())
	}
}

// QueryRequest is the /query and /sweep payload.
type QueryRequest struct {
	Relevance RelevanceSpec `json:"relevance"`
	Theta     float64       `json:"theta"`
	K         int           `json:"k"`
}

// QueryResponse is the /query result.
type QueryResponse struct {
	Answer   []int32 `json:"answer"`
	Gains    []int   `json:"gains"`
	Power    float64 `json:"power"`
	Covered  int     `json:"covered"`
	Relevant int     `json:"relevant"`
	CR       float64 `json:"cr"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Theta < 0 || req.K <= 0 {
		httpError(w, http.StatusBadRequest, "theta must be ≥ 0 and k ≥ 1")
		return
	}
	// Sessions are safe for concurrent TopK calls; the per-shard read locks
	// only exclude /insert on the last shard, so queries run in parallel.
	// The derived context aborts the query when the client disconnects or
	// the configured per-request timeout fires.
	ctx, cancel := s.queryContext(r)
	defer cancel()
	var res *graphrep.Result
	err := s.withSession(ctx, req.Relevance, func(sess *graphrep.Session) (err error) {
		res, err = sess.TopKContext(ctx, req.Theta, req.K)
		return err
	})
	if err != nil {
		writeQueryError(w, r, err)
		return
	}
	resp := QueryResponse{
		Gains:    res.Gains,
		Power:    res.Power,
		Covered:  res.Covered,
		Relevant: res.Relevant,
		CR:       res.CompressionRatio(),
	}
	for _, id := range res.Answer {
		resp.Answer = append(resp.Answer, int32(id))
	}
	writeJSON(w, resp)
}

// SweepResponse is the /sweep result.
type SweepResponse struct {
	Points    []graphrep.ThetaPoint `json:"points"`
	Suggested graphrep.ThetaPoint   `json:"suggested"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.K <= 0 {
		httpError(w, http.StatusBadRequest, "k must be ≥ 1")
		return
	}
	ctx, cancel := s.queryContext(r)
	defer cancel()
	var points []graphrep.ThetaPoint
	err := s.withSession(ctx, req.Relevance, func(sess *graphrep.Session) (err error) {
		points, err = sess.SweepThetaContext(ctx, req.K)
		return err
	})
	if err != nil {
		writeQueryError(w, r, err)
		return
	}
	best, err := graphrep.SuggestTheta(points)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, SweepResponse{Points: points, Suggested: best})
}

// StatsResponse is the /stats result.
type StatsResponse struct {
	Graphs     int     `json:"graphs"`
	AvgNodes   float64 `json:"avgNodes"`
	AvgEdges   float64 `json:"avgEdges"`
	Labels     int     `json:"labels"`
	FeatureDim int     `json:"featureDim"`
	IndexBytes int64   `json:"indexBytes"`
	// Queries counts completed TopK calls; ExactDistances and
	// PrunedDistances split their candidate threshold tests into ones that
	// needed an exact distance value and ones the bounded kernel resolved
	// from a bound alone.
	Queries         int64 `json:"queries"`
	ExactDistances  int   `json:"exactDistances"`
	PrunedDistances int   `json:"prunedDistances"`
	// Prune is the stage breakdown of every bounded threshold test the
	// default metric decided (index build and queries alike); all zero with
	// a custom metric or a disabled kernel.
	Prune PruneResponse `json:"prune"`
}

// PruneResponse mirrors graphrep.PruneStats for the JSON API: how many
// bounded threshold tests the embedding and greedy bounds resolved, and how
// many fell through to a completed Hungarian solve.
type PruneResponse struct {
	Embedding    int64 `json:"embedding"`
	Greedy       int64 `json:"greedy"`
	BoundedExact int64 `json:"boundedExact"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	// Stats walks the database and index; exclude /insert while reading.
	for i := range s.locks {
		s.locks[i].RLock()
	}
	defer s.rUnlockAll()
	st := s.db.Stats()
	snap := s.engine.Telemetry().Snapshot()
	writeJSON(w, StatsResponse{
		Graphs:          st.Graphs,
		AvgNodes:        st.AvgNodes,
		AvgEdges:        st.AvgEdges,
		Labels:          st.Labels,
		FeatureDim:      s.db.FeatureDim(),
		IndexBytes:      s.engine.IndexBytes(),
		Queries:         snap.Queries,
		ExactDistances:  snap.QueryTotals.ExactDistances,
		PrunedDistances: snap.QueryTotals.PrunedDistances,
		Prune: PruneResponse{
			Embedding:    snap.Prune.Embedding,
			Greedy:       snap.Prune.Greedy,
			BoundedExact: snap.Prune.BoundedExact,
		},
	})
}

// GraphResponse is the /graph result.
type GraphResponse struct {
	ID       int32     `json:"id"`
	Labels   []uint32  `json:"labels"`
	Edges    [][3]int  `json:"edges"` // [u, v, label]
	Features []float64 `json:"features"`
}

func (s *Server) handleGraph(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	id, err := strconv.Atoi(r.URL.Query().Get("id"))
	if err != nil || id < 0 || id >= s.db.Len() {
		httpError(w, http.StatusNotFound, "unknown graph id")
		return
	}
	// Lock only the shard owning this graph: inserts (which write-lock the
	// last shard) never delay reads of graphs in earlier shards.
	p := s.engine.ShardFor(graphrep.ID(id))
	s.locks[p].RLock()
	defer s.locks[p].RUnlock()
	g := s.db.Graph(graphrep.ID(id))
	resp := GraphResponse{ID: int32(id), Features: g.Features()}
	for _, l := range g.VertexLabels() {
		resp.Labels = append(resp.Labels, uint32(l))
	}
	for _, e := range g.Edges() {
		resp.Edges = append(resp.Edges, [3]int{e.U, e.V, int(e.Label)})
	}
	writeJSON(w, resp)
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
			return false
		}
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Response already started; nothing useful to do beyond logging at
		// the caller. Keep the handler silent here.
		_ = err
	}
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
