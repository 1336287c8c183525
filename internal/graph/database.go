package graph

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Store is the physical representation of a database prefix: the read API
// every Database method goes through. Two implementations exist — heapStore
// (graphs built in memory by the text loader, the generators, or NewDatabase)
// and mappedStore (zero-copy views over a GRDB001 container, see grdb.go).
// Consumers never see a Store directly; they hold a *Database, whose
// copy-on-write snapshot pairs one immutable Store with a heap-resident tail
// of appended graphs.
type Store interface {
	// Len returns the number of graphs in the store.
	Len() int
	// Graph returns the graph with the given id (0 ≤ id < Len). Heap stores
	// return the resident graph; mapped stores materialize a small handle
	// whose slices alias the mapping.
	Graph(id ID) *Graph
	// Features returns id's feature vector without materializing a handle.
	Features(id ID) []float64
	// FeatureDim returns the feature dimensionality (0 when empty).
	FeatureDim() int
	// EnsureValid runs the store's deferred O(n) content validation once and
	// returns its cached verdict. Heap stores are validated by construction
	// and return nil.
	EnsureValid() error
	// Close releases the store's backing resources (a mapping, if any).
	Close() error
	// Mapped reports whether graph content is served from a mapping rather
	// than the heap.
	Mapped() bool
}

// dbState is one atomic snapshot of a database: an immutable base store plus
// the copy-on-write tail of graphs appended since open. The tail is the thaw
// mechanism of the mapped path — appends land on the heap while the mapped
// prefix stays untouched — and doubles as the publish unit that keeps
// Append's atomic-snapshot semantics.
type dbState struct {
	base Store
	tail []*Graph
}

// Database is an ordered collection of graphs. Graph IDs equal their position
// in the collection; every index structure in this library addresses graphs
// by ID.
//
// The collection is copy-on-write: Append publishes a fresh snapshot instead
// of mutating the current one, so any number of readers may run concurrently
// with one Append and each sees either the old or the new snapshot, never a
// torn one. Concurrent Appends must still be serialized by the caller
// (internal/server holds its index write lock around each insert).
type Database struct {
	state atomic.Pointer[dbState]
}

// snapshot returns the current immutable state.
func (db *Database) snapshot() *dbState { return db.state.Load() }

// heapStore serves graphs resident in memory: the text loader, the dataset
// generators, and NewDatabase all produce one.
type heapStore struct {
	graphs []*Graph
}

func (s *heapStore) Len() int           { return len(s.graphs) }
func (s *heapStore) Graph(id ID) *Graph { return s.graphs[id] }
func (s *heapStore) Features(id ID) []float64 {
	return s.graphs[id].features
}
func (s *heapStore) FeatureDim() int {
	if len(s.graphs) == 0 {
		return 0
	}
	return len(s.graphs[0].features)
}
func (s *heapStore) EnsureValid() error { return nil }
func (s *heapStore) Close() error       { return nil }
func (s *heapStore) Mapped() bool       { return false }

// newDatabase wraps a base store in a Database with an empty tail.
func newDatabase(base Store) *Database {
	db := &Database{}
	db.state.Store(&dbState{base: base})
	return db
}

// NewDatabase assembles a database from graphs whose IDs must equal their
// slice positions. The database takes ownership of the slice; the caller must
// not modify it afterwards.
func NewDatabase(graphs []*Graph) (*Database, error) {
	for i, g := range graphs {
		if g == nil {
			return nil, fmt.Errorf("graph: nil graph at position %d", i)
		}
		if int(g.ID()) != i {
			return nil, fmt.Errorf("graph: graph at position %d has id %d", i, g.ID())
		}
	}
	return newDatabase(&heapStore{graphs: graphs}), nil
}

// Len returns the number of graphs.
func (db *Database) Len() int {
	st := db.snapshot()
	return st.base.Len() + len(st.tail)
}

// Append adds a graph to the end of the database. Its ID must equal the
// current length and its feature dimensionality must match. Append copies the
// tail slice and atomically publishes a new snapshot, so it is safe to run
// concurrently with readers; concurrent Appends must be serialized by the
// caller. Appends onto a mapped database land on the heap — the mapped
// prefix is immutable, exactly like a thawed index shard.
func (db *Database) Append(g *Graph) error {
	st := db.snapshot()
	n := st.base.Len() + len(st.tail)
	if g == nil {
		return fmt.Errorf("graph: nil graph")
	}
	if int(g.ID()) != n {
		return fmt.Errorf("graph: appended graph has id %d, want %d", g.ID(), n)
	}
	if n > 0 && len(g.Features()) != db.FeatureDim() {
		return fmt.Errorf("graph: appended feature dim %d, want %d", len(g.Features()), db.FeatureDim())
	}
	next := &dbState{base: st.base, tail: make([]*Graph, len(st.tail)+1)}
	copy(next.tail, st.tail)
	next.tail[len(st.tail)] = g
	db.state.Store(next)
	return nil
}

// Graph returns the graph with the given id.
func (db *Database) Graph(id ID) *Graph {
	st := db.snapshot()
	if n := st.base.Len(); int(id) < n {
		return st.base.Graph(id)
	} else {
		return st.tail[int(id)-n]
	}
}

// Features returns id's feature vector — the read every relevance function
// and score performs — without materializing a graph handle on the mapped
// path. The caller must not modify the returned slice.
func (db *Database) Features(id ID) []float64 {
	st := db.snapshot()
	if n := st.base.Len(); int(id) < n {
		return st.base.Features(id)
	} else {
		return st.tail[int(id)-n].features
	}
}

// Graphs returns a freshly assembled slice of every graph in the current
// snapshot; graphs appended later do not appear in it. The caller must not
// modify the graphs. Prefer Len/Graph/Features iteration on large databases:
// on the mapped path Graphs materializes one handle per graph.
func (db *Database) Graphs() []*Graph {
	st := db.snapshot()
	out := make([]*Graph, st.base.Len()+len(st.tail))
	for i := 0; i < st.base.Len(); i++ {
		out[i] = st.base.Graph(ID(i))
	}
	copy(out[st.base.Len():], st.tail)
	return out
}

// FeatureDim returns the dimensionality of the feature vectors, or 0 for an
// empty database. All graphs are expected to share one dimensionality.
func (db *Database) FeatureDim() int {
	st := db.snapshot()
	if st.base.Len() > 0 {
		return st.base.FeatureDim()
	}
	if len(st.tail) > 0 {
		return len(st.tail[0].features)
	}
	return 0
}

// EnsureValid runs the deferred O(n) content validation of a mapped store
// once (a sync.Once gate; later calls return the cached verdict) and is a
// no-op for heap databases, whose content was validated at construction.
// Session creation and Insert call it, so every indexed query path reads
// validated content; callers that traverse graph structure without going
// through the index (or the Validate method) should call it themselves after
// OpenDatabaseFile.
func (db *Database) EnsureValid() error { return db.snapshot().base.EnsureValid() }

// Mapped reports whether the database prefix is served zero-copy from a
// mapping (opened via OpenDatabaseFile) rather than the heap.
func (db *Database) Mapped() bool { return db.snapshot().base.Mapped() }

// Close releases the backing store — the file mapping, for a database opened
// with OpenDatabaseFile. No reads may be in flight or issued afterwards:
// graph handles alias the mapping being unmapped. Close is a no-op for heap
// databases, and idempotent.
func (db *Database) Close() error { return db.snapshot().base.Close() }

// Validate checks structural invariants of the database: consistent feature
// dimensionality and well-formed graphs. For a mapped database the deferred
// content validation runs first, so Validate subsumes EnsureValid.
func (db *Database) Validate() error {
	if err := db.EnsureValid(); err != nil {
		return err
	}
	dim := db.FeatureDim()
	for i, n := 0, db.Len(); i < n; i++ {
		g := db.Graph(ID(i))
		if len(g.Features()) != dim {
			return fmt.Errorf("graph %d: feature dim %d, want %d", g.ID(), len(g.Features()), dim)
		}
		for _, e := range g.Edges() {
			if e.U < 0 || e.V >= g.Order() || e.U >= e.V {
				return fmt.Errorf("graph %d: malformed edge %+v", g.ID(), e)
			}
		}
		for _, f := range g.Features() {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("graph %d: non-finite feature %v", g.ID(), f)
			}
		}
	}
	return nil
}

// Stats summarizes a database the way Table 3 in the paper does.
type Stats struct {
	Graphs   int
	AvgNodes float64
	AvgEdges float64
	MaxNodes int
	MaxEdges int
	Labels   int
}

// Stats computes summary statistics over the database.
func (db *Database) Stats() Stats {
	var s Stats
	s.Graphs = db.Len()
	labels := make(map[Label]struct{})
	for i := 0; i < s.Graphs; i++ {
		g := db.Graph(ID(i))
		s.AvgNodes += float64(g.Order())
		s.AvgEdges += float64(g.Size())
		if g.Order() > s.MaxNodes {
			s.MaxNodes = g.Order()
		}
		if g.Size() > s.MaxEdges {
			s.MaxEdges = g.Size()
		}
		for _, l := range g.VertexLabels() {
			labels[l] = struct{}{}
		}
	}
	if s.Graphs > 0 {
		s.AvgNodes /= float64(s.Graphs)
		s.AvgEdges /= float64(s.Graphs)
	}
	s.Labels = len(labels)
	return s
}
