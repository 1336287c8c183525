package shard

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"

	"graphrep/internal/container"
	"graphrep/internal/ged"
	"graphrep/internal/graph"
	"graphrep/internal/metric"
	"graphrep/internal/nbindex"
	"graphrep/internal/vantage"
)

// NBIDX004 is the one index format: a container (see internal/container)
// whose fixed-stride sections become typed views without copying, so an
// index opened over a memory mapping serves queries in place and the open
// costs O(header + directory), not O(data). Global sections carry shard 0;
// per-shard sections carry the 0-based shard number (global and per-shard
// kinds are disjoint, so the (kind, shard) key is unique). A file holds
// only what queries, Insert and the load checks read. Kinds 12–13 (every
// space's sorted view), 27–28 (node radii and diameters) and 30 (a
// graph-to-leaf map) are retired, and a file that still carries them lacks
// kind 14, so it fails at open. Kinds 20–26 (the NB-Tree in parallel
// arrays) are retired too; nothing reads them, so a file that carries them
// still opens, and it re-saves without them.
const (
	// Global sections.
	secManifest = 1 // u64 shardCount, then per shard u64 base, u64 count
	secGrid     = 2 // f64 ascending θ grid

	// Per-shard vantage ordering.
	secVPs   = 10 // i32 vantage point IDs
	secDist  = 11 // f64 numVPs×count row-major: d(vp, g)
	secOrder = 14 // i32 count: the shard's IDs sorted by the first row of Dist

	// Per-shard filter embeddings, offset-tabled like the container itself.
	secEmbOffsets = 40 // u32 per graph plus terminator, into EmbBlob
	secEmbBlob    = 41 // encoded embedding records, concatenated in ID order
)

var magic = [8]byte{'N', 'B', 'I', 'D', 'X', '0', '0', '4'}

// Encode persists the set as an NBIDX004 container, writing every part's
// arrays and embedding table as they are held. Output bytes are a pure
// function of the set's contents — sections are emitted in a fixed order,
// and embeddings depend only on the graphs — so they are identical for any
// build worker count, for either bounded-kernel setting, and for a set that
// was itself opened from a file.
func (s *Set) Encode(w io.Writer) error {
	var sections []container.Section
	add := func(kind, shard uint32, length uint64, write func(io.Writer) error) {
		sections = append(sections, container.Section{Kind: kind, Shard: shard, Len: length, Write: write})
	}
	writeLE := container.LE

	manifest := make([]uint64, 0, 1+2*len(s.parts))
	manifest = append(manifest, uint64(len(s.parts)))
	for _, part := range s.parts {
		manifest = append(manifest, uint64(part.Base()), uint64(part.Count()))
	}
	add(secManifest, 0, uint64(8*len(manifest)), writeLE(manifest))
	add(secGrid, 0, uint64(8*len(s.grid)), writeLE(s.grid))

	for p, part := range s.parts {
		sh := uint32(p)
		vo, tab := part.VO(), part.EmbeddingTable()
		count, nv := part.Count(), vo.NumVPs()

		add(secVPs, sh, uint64(4*nv), writeLE(vo.VPs()))
		add(secDist, sh, 8*uint64(nv)*uint64(count), func(w io.Writer) error {
			for v := 0; v < nv; v++ {
				if err := binary.Write(w, binary.LittleEndian, vo.DistRow(v)); err != nil {
					return err
				}
			}
			return nil
		})
		add(secOrder, sh, uint64(4*count), writeLE(vo.Order()))
		add(secEmbOffsets, sh, uint64(4*len(tab.Offsets())), writeLE(tab.Offsets()))
		add(secEmbBlob, sh, uint64(len(tab.Blob())), func(w io.Writer) error { _, err := w.Write(tab.Blob()); return err })
	}
	return container.Write(w, magic, sections)
}

// Read loads a set written by Encode from r with no cancellation. See
// ReadContext.
func Read(r io.Reader, db *graph.Database, m metric.Metric) (*Set, error) {
	return ReadContext(context.Background(), r, db, m)
}

// ReadContext loads a set from a stream: it reads r whole onto the heap and
// parses that copy with ReadBytesContext, so the set serves queries from
// views over it. Callers holding the file already (or a mapping of it)
// should call ReadBytesContext directly and skip the copy.
func ReadContext(ctx context.Context, r io.Reader, db *graph.Database, m metric.Metric) (*Set, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("shard: read index: %w", err)
	}
	return ReadBytesContext(ctx, data, db, m)
}

// ReadBytes loads a set from data with no cancellation. See
// ReadBytesContext.
func ReadBytes(data []byte, db *graph.Database, m metric.Metric) (*Set, error) {
	return ReadBytesContext(context.Background(), data, db, m)
}

// ReadBytesContext loads an NBIDX004 container directly from a byte slice —
// typically a memory mapping, in which case every array the set serves
// queries from stays a view over the mapping and the load cost is independent
// of the index size. The caller must keep data alive (and the mapping open)
// for the lifetime of the returned set.
//
// Validation is the load path's contract: structural integrity (bounds,
// alignment, overlaps, cross-section consistency, everything scans index by
// value) is checked here, so corrupt or truncated files fail with an error —
// never a panic, and never an out-of-bounds read later at query time. Any
// other format, the retired gob layouts NBIDX001–NBIDX003 included, fails
// with an error that names its magic, and a file whose shard sections do not
// fit (one saved before the order section, say) with one that names the
// section; both say to rebuild the index.
func ReadBytesContext(ctx context.Context, data []byte, db *graph.Database, m metric.Metric) (*Set, error) {
	d, err := container.Parse(data, magic)
	if err != nil {
		return nil, fmt.Errorf("shard: %w; rebuild the index", err)
	}
	manifest, err := container.View[uint64](d, secManifest, 0)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	if len(manifest) == 0 {
		return nil, fmt.Errorf("shard: manifest is empty")
	}
	shardCount := manifest[0]
	if shardCount == 0 || shardCount > uint64(db.Len()) || uint64(len(manifest)) != 1+2*shardCount {
		return nil, fmt.Errorf("shard: manifest declares %d shards with %d entries for %d graphs",
			shardCount, len(manifest), db.Len())
	}
	gridView, err := container.View[float64](d, secGrid, 0)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	if len(gridView) == 0 || len(gridView) > 1<<20 {
		return nil, fmt.Errorf("shard: implausible grid length %d", len(gridView))
	}
	// The grid is tiny and shared across every shard and session; copying it
	// here means only bulk arrays reference the mapping.
	grid := append([]float64(nil), gridView...)

	s := &Set{db: db, grid: grid, parts: make([]*nbindex.Index, shardCount)}
	next := graph.ID(0)
	for p := range s.parts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		base, count := manifest[1+2*p], manifest[2+2*p]
		// base is compared in uint64 (no graph.ID truncation) and count is
		// bounded by the remaining range, so base+count cannot overflow.
		if base != uint64(next) || count == 0 || count > uint64(db.Len())-base {
			return nil, fmt.Errorf("shard: shard %d declares [%d, %d), want contiguous from %d",
				p, base, base+count, next)
		}
		part, err := readPart(d, uint32(p), graph.ID(base), int(count), db, m, grid)
		if err != nil {
			return nil, fmt.Errorf("shard: shard %d: %w; rebuild the index", p, err)
		}
		s.parts[p] = part
		next += graph.ID(count)
	}
	if int(next) != db.Len() {
		return nil, fmt.Errorf("shard: set covers %d graphs, database has %d", next, db.Len())
	}
	return s, nil
}

// readPart assembles one shard's index from its sections using the
// deferred component constructors (vantage.FromViewsDeferred,
// ged.NewTableDeferred, nbindex.PartFromViewsDeferred): only
// O(1)-per-shard shape checks — plus the cross-section length couplings the
// components cannot see — run here, so the open stays independent of index
// size. The O(count) content scans
// run once at the part's first use (nbindex.Index.EnsureValid, called by
// session creation and Insert), which is where corrupt content surfaces as
// an error.
func readPart(d *container.Dir, sh uint32, base graph.ID, count int, db *graph.Database, m metric.Metric, grid []float64) (*nbindex.Index, error) {
	vps, err := container.View[graph.ID](d, secVPs, sh)
	if err != nil {
		return nil, err
	}
	dist, err := container.View[float64](d, secDist, sh)
	if err != nil {
		return nil, err
	}
	order, err := container.View[graph.ID](d, secOrder, sh)
	if err != nil {
		return nil, err
	}
	vo, err := vantage.FromViewsDeferred(vps, base, count, dist, order)
	if err != nil {
		return nil, err
	}

	embOffs, err := container.View[uint32](d, secEmbOffsets, sh)
	if err != nil {
		return nil, err
	}
	embBlob, err := d.Section(secEmbBlob, sh)
	if err != nil {
		return nil, err
	}
	if len(embOffs) != count+1 {
		return nil, fmt.Errorf("ged: embedding table has %d offsets for %d graphs", len(embOffs), count)
	}
	tab, err := ged.NewTableDeferred(embOffs, embBlob)
	if err != nil {
		return nil, err
	}
	return nbindex.PartFromViewsDeferred(db, m, vo, grid, tab, 0)
}
