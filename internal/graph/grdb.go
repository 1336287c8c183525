package graph

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"graphrep/internal/container"
	"graphrep/internal/mmapfile"
)

// Format GRDB001: the zero-copy graph container, the corpus-side sibling of
// the NBIDX004 index container, sharing its layout (see internal/container;
// GRDB has no shards, so every section sits at shard 0). Where the text
// format parses every graph into heap-resident CSR slices, a GRDB001 file is
// readable in place from a byte slice — typically a memory mapping — so
// opening a database costs O(header + directory), not O(corpus), and graph
// content stays in the page cache, shared across processes serving one file.
//
// The sections form one database-wide CSR: a per-graph vertex offset table
// into global label/adjacency-offset arrays, and a global half-edge array the
// adjacency offsets index. A Graph handle materialized from the container is
// three subslices plus two shared slices — no decoding, no copying.
const (
	grdbMeta     = 1 // u64 ×4: graphCount, featureDim, totalVertices, totalHalves
	grdbVtxOff   = 2 // u64 graphCount+1: graph -> first vertex, prefix sums
	grdbAdjOff   = 3 // u64 totalVertices+1: vertex -> first half-edge, prefix sums
	grdbLabels   = 4 // u32 totalVertices: vertex labels
	grdbAdjTo    = 5 // i32 totalHalves: neighbor (graph-local vertex index)
	grdbAdjLabel = 6 // u32 totalHalves: connecting edge label
	grdbFeatures = 7 // f64 graphCount×featureDim, row-major
)

// GRDBMagic is the 8-byte magic prefix of a GRDB001 container, exported so
// CLI loaders can sniff the format.
var GRDBMagic = [8]byte{'G', 'R', 'D', 'B', '0', '0', '1', 0}

// SaveDatabase persists db in the GRDB001 zero-copy layout. Output bytes are
// a pure function of the database contents: sections are emitted in a fixed
// order, offsets are derived deterministically, and padding is zero — so the
// same corpus always produces the same file, byte for byte, whether it was
// text-loaded, generated, or itself mapped.
func SaveDatabase(w io.Writer, db *Database) error {
	n := db.Len()
	dim := db.FeatureDim()
	vtxOff := make([]uint64, n+1)
	var adjOff []uint64
	var labels []Label
	var adjTo []int32
	var adjLabel []Label
	features := make([]float64, 0, n*dim)
	adjOff = append(adjOff, 0)
	for i := 0; i < n; i++ {
		g := db.Graph(ID(i))
		if len(g.Features()) != dim {
			return fmt.Errorf("graph: graph %d has feature dim %d, want %d", i, len(g.Features()), dim)
		}
		vtxOff[i+1] = vtxOff[i] + uint64(g.Order())
		labels = append(labels, g.labels...)
		base := adjOff[len(adjOff)-1]
		for v := 0; v < g.Order(); v++ {
			// Rebase the graph's absolute offsets (mapped handles carry
			// file-global values) onto this file's half-edge array.
			adjOff = append(adjOff, base+(g.adjOff[v+1]-g.adjOff[0]))
		}
		adjTo = append(adjTo, g.adjTo[g.adjOff[0]:g.adjOff[g.Order()]]...)
		adjLabel = append(adjLabel, g.adjLabel[g.adjOff[0]:g.adjOff[g.Order()]]...)
		features = append(features, g.Features()...)
	}

	meta := []uint64{uint64(n), uint64(dim), vtxOff[n], uint64(len(adjTo))}
	writeLE := container.LE
	return container.Write(w, GRDBMagic, []container.Section{
		{Kind: grdbMeta, Len: uint64(8 * len(meta)), Write: writeLE(meta)},
		{Kind: grdbVtxOff, Len: uint64(8 * len(vtxOff)), Write: writeLE(vtxOff)},
		{Kind: grdbAdjOff, Len: uint64(8 * len(adjOff)), Write: writeLE(adjOff)},
		{Kind: grdbLabels, Len: uint64(4 * len(labels)), Write: writeLE(labels)},
		{Kind: grdbAdjTo, Len: uint64(4 * len(adjTo)), Write: writeLE(adjTo)},
		{Kind: grdbAdjLabel, Len: uint64(4 * len(adjLabel)), Write: writeLE(adjLabel)},
		{Kind: grdbFeatures, Len: uint64(8 * len(features)), Write: writeLE(features)},
	})
}

// mappedStore serves graphs as zero-copy views over a GRDB001 image. Opening
// one runs only the O(1) shape checks below; the O(corpus) content scan
// (offset monotonicity, neighbor ranges, mirror-edge consistency, finite
// features) defers to EnsureValid — a sync.Once the session-creation and
// Insert paths trigger — which is what keeps open time flat in corpus size.
type mappedStore struct {
	f   *mmapfile.File // backing image; nil when built from foreign bytes
	n   int            // graph count
	dim int            // feature dimensionality
	// The CSR sections. Cross-section length couplings and endpoint values
	// are checked at open; interior offset values are content the deferred
	// scan bounds before anything indexes through them.

	// vtxOff maps graph -> first vertex; interior values are
	// validated by EnsureValid (nondecreasing, 32-bit orders).
	vtxOff []uint64
	// adjOff maps vertex -> first half-edge; interior values are
	// validated by EnsureValid (nondecreasing, every row inside adjTo).
	adjOff   []uint64
	labels   []Label
	adjTo    []int32
	adjLabel []Label
	features []float64

	validateOnce sync.Once
	validateErr  error
}

// OpenDatabaseBytes opens a GRDB001 image already resident in memory. The
// returned database serves graph content as views over data, so data must
// stay alive and unmodified for the database's lifetime. Close is a no-op.
func OpenDatabaseBytes(data []byte) (*Database, error) {
	s, err := newMappedStore(data, nil)
	if err != nil {
		return nil, err
	}
	return newDatabase(s), nil
}

// OpenDatabaseFile opens a GRDB001 container written by SaveDatabase,
// memory-mapping it unless disableMmap is set (or the platform lacks mmap, or
// GRAPHREP_DISABLE_MMAP is set), and serving every graph zero-copy from the
// mapping. Open cost is O(1) in the corpus size: only the header, directory,
// and section shape are checked here, and the deferred content validation
// (EnsureValid) runs once on first indexed use. Call Database.Close when done
// to release the mapping — after no reads remain in flight.
func OpenDatabaseFile(path string, disableMmap bool) (*Database, error) {
	var f *mmapfile.File
	var err error
	if disableMmap {
		f, err = mmapfile.OpenReadAll(path)
	} else {
		f, err = mmapfile.Open(path)
	}
	if err != nil {
		return nil, err
	}
	s, err := newMappedStore(f.Bytes(), f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return newDatabase(s), nil
}

// newMappedStore parses the container and runs the O(1) shape checks: every
// section present and typed, lengths coupled to the meta counts, and the
// offset-table endpoints equal to those counts. Interior offsets, neighbors,
// labels, and features are content — EnsureValid's job.
func newMappedStore(data []byte, f *mmapfile.File) (*mappedStore, error) {
	d, err := container.Parse(data, GRDBMagic)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	meta, err := container.View[uint64](d, grdbMeta, 0)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	if len(meta) != 4 {
		return nil, fmt.Errorf("graph: GRDB meta has %d entries, want 4", len(meta))
	}
	gc, dim, totalV, totalH := meta[0], meta[1], meta[2], meta[3]
	if gc > uint64(math.MaxInt32) {
		return nil, fmt.Errorf("graph: GRDB declares %d graphs; IDs are 32-bit", gc)
	}
	if dim > 1<<20 {
		return nil, fmt.Errorf("graph: implausible GRDB feature dim %d", dim)
	}
	// Every count must be backed by section bytes, so the length couplings
	// below also bound gc/totalV/totalH by the file size.
	vtxOff, err := container.View[uint64](d, grdbVtxOff, 0)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	adjOff, err := container.View[uint64](d, grdbAdjOff, 0)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	labels, err := container.View[Label](d, grdbLabels, 0)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	adjTo, err := container.View[int32](d, grdbAdjTo, 0)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	adjLabel, err := container.View[Label](d, grdbAdjLabel, 0)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	features, err := container.View[float64](d, grdbFeatures, 0)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	if uint64(len(vtxOff)) != gc+1 {
		return nil, fmt.Errorf("graph: GRDB vertex offsets have %d entries for %d graphs", len(vtxOff), gc)
	}
	if uint64(len(adjOff)) != totalV+1 {
		return nil, fmt.Errorf("graph: GRDB adjacency offsets have %d entries for %d vertices", len(adjOff), totalV)
	}
	if uint64(len(labels)) != totalV {
		return nil, fmt.Errorf("graph: GRDB labels cover %d vertices, meta declares %d", len(labels), totalV)
	}
	if uint64(len(adjTo)) != totalH || uint64(len(adjLabel)) != totalH {
		return nil, fmt.Errorf("graph: GRDB adjacency covers %d/%d halves, meta declares %d",
			len(adjTo), len(adjLabel), totalH)
	}
	if totalH%2 != 0 {
		return nil, fmt.Errorf("graph: GRDB half-edge count %d is odd", totalH)
	}
	if uint64(len(features)) != gc*dim {
		return nil, fmt.Errorf("graph: GRDB features cover %d values for %d graphs × dim %d",
			len(features), gc, dim)
	}
	if vtxOff[0] != 0 || vtxOff[gc] != totalV {
		return nil, fmt.Errorf("graph: GRDB vertex offsets span [%d, %d], want [0, %d]",
			vtxOff[0], vtxOff[gc], totalV)
	}
	if adjOff[0] != 0 || adjOff[totalV] != totalH {
		return nil, fmt.Errorf("graph: GRDB adjacency offsets span [%d, %d], want [0, %d]",
			adjOff[0], adjOff[totalV], totalH)
	}
	return &mappedStore{
		f: f, n: int(gc), dim: int(dim),
		vtxOff: vtxOff, adjOff: adjOff, labels: labels,
		adjTo: adjTo, adjLabel: adjLabel, features: features,
	}, nil
}

func (s *mappedStore) Len() int        { return s.n }
func (s *mappedStore) FeatureDim() int { return s.dim }
func (s *mappedStore) Mapped() bool    { return s.f != nil && s.f.Mapped() }

// Graph materializes a handle for id: three subslices of the mapped sections
// plus the two shared half-edge arrays — O(1) time and a small constant of
// heap, independent of the graph's size, with no content copied off the
// mapping. Handles are not cached: the store's heap retention stays a small
// constant rather than O(corpus), which is the point of the mapped path.
func (s *mappedStore) Graph(id ID) *Graph {
	lo := s.vtxOff[id]   //lint:allow oncevalid sessions, Insert, Validate, the exact engines, and internal/server's /graph and /stats run EnsureValid before any graph access
	hi := s.vtxOff[id+1] //lint:allow oncevalid sessions, Insert, Validate, the exact engines, and internal/server's /graph and /stats run EnsureValid before any graph access
	g := &Graph{
		id:       id,
		labels:   s.labels[lo:hi:hi],
		adjOff:   s.adjOff[lo : hi+1 : hi+1],
		adjTo:    s.adjTo[:len(s.adjTo):len(s.adjTo)],
		adjLabel: s.adjLabel[:len(s.adjLabel):len(s.adjLabel)],
	}
	if s.dim > 0 {
		f := uint64(id) * uint64(s.dim)
		g.features = s.features[f : f+uint64(s.dim) : f+uint64(s.dim)]
	}
	return g
}

func (s *mappedStore) Features(id ID) []float64 {
	if s.dim == 0 {
		return nil
	}
	f := uint64(id) * uint64(s.dim)
	return s.features[f : f+uint64(s.dim) : f+uint64(s.dim)]
}

func (s *mappedStore) Close() error {
	if s.f == nil {
		return nil
	}
	return s.f.Close()
}

// EnsureValid runs the deferred O(corpus) content scan exactly once and
// caches the verdict: offset tables nondecreasing (with per-graph orders
// fitting the 32-bit neighbor encoding), every adjacency row strictly
// ascending within [0, order) with no self-loops, every half-edge mirrored
// with an equal label on the other endpoint, and every feature finite. After
// a nil return, every Graph method on every handle is panic-free: all
// indexing is through values this scan bounded.
func (s *mappedStore) EnsureValid() error {
	s.validateOnce.Do(func() { s.validateErr = s.validate() })
	return s.validateErr
}

// validate is EnsureValid's single-run body.
func (s *mappedStore) validate() error {
	// Monotone offset tables first: with the endpoint equalities checked at
	// open, nondecreasing offsets bound every interior value, so the scans
	// below (and every Graph handle afterwards) index in range.
	for i := 0; i+1 < len(s.vtxOff); i++ {
		if s.vtxOff[i] > s.vtxOff[i+1] {
			return fmt.Errorf("graph: GRDB vertex offsets decrease at graph %d", i)
		}
	}
	for i := 0; i+1 < len(s.adjOff); i++ {
		if s.adjOff[i] > s.adjOff[i+1] {
			return fmt.Errorf("graph: GRDB adjacency offsets decrease at vertex %d", i)
		}
	}
	// Every half whose neighbor is the lower endpoint is matched (by binary
	// search) against a distinct higher-neighbor half in the mirror row; the
	// count equality below then makes that injection a bijection, so no
	// unmirrored half of either orientation survives.
	var lowHalves, highHalves uint64
	for i := 0; i < s.n; i++ {
		lo, hi := s.vtxOff[i], s.vtxOff[i+1]
		if hi-lo > uint64(math.MaxInt32) {
			return fmt.Errorf("graph: GRDB graph %d has %d vertices; orders are 32-bit", i, hi-lo)
		}
		order := int64(hi - lo)
		for v := lo; v < hi; v++ {
			local := int64(v - lo)
			prev := int64(-1)
			for j := s.adjOff[v]; j < s.adjOff[v+1]; j++ {
				w := int64(s.adjTo[j])
				if w < 0 || w >= order {
					return fmt.Errorf("graph: GRDB graph %d vertex %d has neighbor %d outside [0, %d)", i, local, w, order)
				}
				if w == local {
					return fmt.Errorf("graph: GRDB graph %d has a self-loop on vertex %d", i, local)
				}
				if w <= prev {
					return fmt.Errorf("graph: GRDB graph %d vertex %d has non-ascending neighbor %d", i, local, w)
				}
				prev = w
				if w > local {
					highHalves++
					continue // verified from the lower endpoint's half
				}
				lowHalves++
				// Mirror check: the reverse half (w -> local) must exist with
				// the same label. Rows are ascending, so binary search.
				gw := lo + uint64(w)
				mLo := s.adjOff[gw]
				row := s.adjTo[mLo:s.adjOff[gw+1]]
				k := sort.Search(len(row), func(k int) bool { return int64(row[k]) >= local })
				if k == len(row) || int64(row[k]) != local {
					return fmt.Errorf("graph: GRDB graph %d edge (%d,%d) has no mirror half", i, w, local)
				}
				if s.adjLabel[mLo+uint64(k)] != s.adjLabel[j] {
					return fmt.Errorf("graph: GRDB graph %d edge (%d,%d) has mismatched labels %d/%d",
						i, w, local, s.adjLabel[mLo+uint64(k)], s.adjLabel[j])
				}
			}
		}
	}
	if lowHalves != highHalves {
		return fmt.Errorf("graph: GRDB adjacency has %d lower and %d higher halves; every edge needs one of each",
			lowHalves, highHalves)
	}
	for i, f := range s.features {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("graph: GRDB graph %d has non-finite feature %v", i/s.dim, f)
		}
	}
	return nil
}
