package graph

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"graphrep/internal/container"
)

// testDatabase builds a deterministic heap database: n small random graphs
// with labelled edges and dim features each. Connectivity and degree vary so
// the CSR rows exercise empty, single, and dense adjacency.
func testDatabase(t *testing.T, n, dim int, seed int64) *Database {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	graphs := make([]*Graph, n)
	for i := range graphs {
		order := 1 + rng.Intn(8)
		b := NewBuilder(order)
		for v := 0; v < order; v++ {
			b.AddVertex(Label(rng.Intn(5)))
		}
		for u := 0; u < order; u++ {
			for v := u + 1; v < order; v++ {
				if rng.Intn(3) == 0 {
					b.AddEdge(u, v, Label(rng.Intn(4)))
				}
			}
		}
		if dim > 0 {
			feats := make([]float64, dim)
			for j := range feats {
				feats[j] = rng.NormFloat64()
			}
			b.SetFeatures(feats)
		}
		g, err := b.Build(ID(i))
		if err != nil {
			t.Fatal(err)
		}
		graphs[i] = g
	}
	db, err := NewDatabase(graphs)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// saveGRDB serializes db and fails the test on error.
func saveGRDB(t *testing.T, db *Database) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveDatabase(&buf, db); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// requireGraphEqual compares every read surface of two graphs: structure,
// labels, features, and the derived canonical forms index construction
// consumes (stars, WL hashes, components).
func requireGraphEqual(t *testing.T, want, got *Graph) {
	t.Helper()
	if got.ID() != want.ID() || got.Order() != want.Order() || got.Size() != want.Size() {
		t.Fatalf("graph %d: id/order/size %d/%d/%d, want %d/%d/%d",
			want.ID(), got.ID(), got.Order(), got.Size(), want.ID(), want.Order(), want.Size())
	}
	if !reflect.DeepEqual(append([]Label{}, got.VertexLabels()...), append([]Label{}, want.VertexLabels()...)) {
		t.Fatalf("graph %d: vertex labels differ", want.ID())
	}
	if !reflect.DeepEqual(got.Edges(), want.Edges()) {
		t.Fatalf("graph %d: edges %v, want %v", want.ID(), got.Edges(), want.Edges())
	}
	if !reflect.DeepEqual(append([]float64{}, got.Features()...), append([]float64{}, want.Features()...)) {
		t.Fatalf("graph %d: features differ", want.ID())
	}
	for v := 0; v < want.Order(); v++ {
		if got.Degree(v) != want.Degree(v) {
			t.Fatalf("graph %d: degree(%d) = %d, want %d", want.ID(), v, got.Degree(v), want.Degree(v))
		}
	}
	if !reflect.DeepEqual(got.Stars(), want.Stars()) {
		t.Fatalf("graph %d: stars differ", want.ID())
	}
	if got.WLHash(3) != want.WLHash(3) {
		t.Fatalf("graph %d: WL hash %x, want %x", want.ID(), got.WLHash(3), want.WLHash(3))
	}
	if !reflect.DeepEqual(got.Components(), want.Components()) {
		t.Fatalf("graph %d: components differ", want.ID())
	}
}

// TestGRDBRoundTrip checks the central container property: a mapped database
// is indistinguishable from the heap database it was saved from on every read
// path, and re-saving the mapped database reproduces the bytes exactly (the
// offset rebase in SaveDatabase is the round-trip inverse of the mapped
// handles' absolute offsets).
func TestGRDBRoundTrip(t *testing.T) {
	for _, dim := range []int{0, 3} {
		db := testDatabase(t, 40, dim, 7)
		blob := saveGRDB(t, db)
		mapped, err := OpenDatabaseBytes(blob)
		if err != nil {
			t.Fatal(err)
		}
		if err := mapped.EnsureValid(); err != nil {
			t.Fatalf("EnsureValid on a freshly saved container: %v", err)
		}
		if mapped.Len() != db.Len() || mapped.FeatureDim() != db.FeatureDim() {
			t.Fatalf("mapped len/dim %d/%d, want %d/%d", mapped.Len(), mapped.FeatureDim(), db.Len(), db.FeatureDim())
		}
		for i := 0; i < db.Len(); i++ {
			requireGraphEqual(t, db.Graph(ID(i)), mapped.Graph(ID(i)))
			if !reflect.DeepEqual(append([]float64{}, mapped.Features(ID(i))...), append([]float64{}, db.Features(ID(i))...)) {
				t.Fatalf("graph %d: store Features differ", i)
			}
		}
		again := saveGRDB(t, mapped)
		if !bytes.Equal(again, blob) {
			t.Fatalf("dim %d: re-saving the mapped database changed the bytes", dim)
		}
	}
}

// TestGRDBDeterministicBytes checks SaveDatabase is a pure function of the
// corpus.
func TestGRDBDeterministicBytes(t *testing.T) {
	db := testDatabase(t, 25, 2, 3)
	if !bytes.Equal(saveGRDB(t, db), saveGRDB(t, db)) {
		t.Fatal("two saves of the same database differ")
	}
}

// TestGRDBOpenFile exercises the file path with mapping on and off: identical
// content either way, and Close releases the backing without error.
func TestGRDBOpenFile(t *testing.T) {
	db := testDatabase(t, 20, 2, 9)
	blob := saveGRDB(t, db)
	path := filepath.Join(t.TempDir(), "corpus.grdb")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, disable := range []bool{false, true} {
		mapped, err := OpenDatabaseFile(path, disable)
		if err != nil {
			t.Fatalf("disableMmap=%v: %v", disable, err)
		}
		if err := mapped.Validate(); err != nil {
			t.Fatalf("disableMmap=%v: %v", disable, err)
		}
		for i := 0; i < db.Len(); i++ {
			requireGraphEqual(t, db.Graph(ID(i)), mapped.Graph(ID(i)))
		}
		if err := mapped.Close(); err != nil {
			t.Fatalf("disableMmap=%v: close: %v", disable, err)
		}
	}
}

// TestGRDBAppendThaw checks the copy-on-write tail: appending to a mapped
// database lands on the heap, leaves the mapped prefix untouched, and keeps
// both sides readable through one Database.
func TestGRDBAppendThaw(t *testing.T) {
	db := testDatabase(t, 10, 2, 5)
	mapped, err := OpenDatabaseBytes(saveGRDB(t, db))
	if err != nil {
		t.Fatal(err)
	}
	if !mappedBase(mapped) {
		t.Fatal("mapped database does not report a mapped base")
	}
	b := NewBuilder(2)
	b.AddVertex(1)
	b.AddVertex(2)
	b.AddEdge(0, 1, 3)
	b.SetFeatures([]float64{0.5, -0.5})
	g, err := b.Build(ID(10))
	if err != nil {
		t.Fatal(err)
	}
	if err := mapped.Append(g); err != nil {
		t.Fatal(err)
	}
	if mapped.Len() != 11 {
		t.Fatalf("len %d after append, want 11", mapped.Len())
	}
	if got := mapped.Graph(10); got != g {
		t.Fatal("tail graph is not served as appended")
	}
	requireGraphEqual(t, db.Graph(3), mapped.Graph(3))
	if err := mapped.Validate(); err != nil {
		t.Fatal(err)
	}
}

// mappedBase reports whether db's base store is the mapped implementation
// (Mapped() is false for OpenDatabaseBytes, which has no file backing, so the
// test inspects the store type directly).
func mappedBase(db *Database) bool {
	_, ok := db.snapshot().base.(*mappedStore)
	return ok
}

// TestGRDBRejectsCorruptLayout walks a catalogue of containers whose header
// and directory are sound but whose GRDB sections are missing or misshapen
// through OpenDatabaseBytes: every one must fail at open, with no panic.
// Header and directory corruption is internal/container's table test.
func TestGRDBRejectsCorruptLayout(t *testing.T) {
	db := testDatabase(t, 8, 1, 2)
	blob := saveGRDB(t, db)
	le := binary.LittleEndian
	// Directory entries follow SaveDatabase's section order, kinds 1..7.
	entry := func(b []byte, kind uint32) []byte { return b[container.HeaderLen+int(kind-1)*container.EntryLen:] }
	// meta returns the meta section of b, which aliases b.
	meta := func(b []byte) []byte {
		d, err := container.Parse(b, GRDBMagic)
		if err != nil {
			t.Fatal(err)
		}
		sec, err := d.Section(grdbMeta, 0)
		if err != nil {
			t.Fatal(err)
		}
		return sec
	}
	mutate := func(name string, fn func(b []byte)) {
		b := append([]byte(nil), blob...)
		fn(b)
		if _, err := OpenDatabaseBytes(b); err == nil {
			t.Errorf("%s: corrupt container opened cleanly", name)
		}
	}
	mutate("missing section", func(b []byte) { le.PutUint32(entry(b, grdbFeatures), 99) })
	mutate("section outside shard 0", func(b []byte) { le.PutUint32(entry(b, grdbMeta)[4:], 1) })
	mutate("short meta", func(b []byte) { le.PutUint64(entry(b, grdbMeta)[16:], 24) })
	mutate("labels not whole elements", func(b []byte) {
		e := entry(b, grdbLabels)
		le.PutUint64(e[16:], le.Uint64(e[16:])-1)
	})
	mutate("graph count", func(b []byte) { m := meta(b); le.PutUint64(m[0:], le.Uint64(m[0:])+1) })
	mutate("feature dim", func(b []byte) { le.PutUint64(meta(b)[8:], 2) })
	mutate("vertex count", func(b []byte) { m := meta(b); le.PutUint64(m[16:], le.Uint64(m[16:])+1) })
	mutate("half-edge count", func(b []byte) { m := meta(b); le.PutUint64(m[24:], le.Uint64(m[24:])+2) })
	mutate("vertex offsets end", func(b []byte) {
		d, err := container.Parse(b, GRDBMagic)
		if err != nil {
			t.Fatal(err)
		}
		sec, err := d.Section(grdbVtxOff, 0)
		if err != nil {
			t.Fatal(err)
		}
		last := sec[len(sec)-8:]
		le.PutUint64(last, le.Uint64(last)+1)
	})
}

// TestGRDBEnsureValidCatchesContent corrupts section content (which the O(1)
// open deliberately does not read) and checks the deferred scan reports it.
func TestGRDBEnsureValidCatchesContent(t *testing.T) {
	db := testDatabase(t, 8, 1, 4)
	b := saveGRDB(t, db)
	// container.Parse returns subslices of b, so writing through the
	// section view corrupts the container in place: point the first
	// half-edge at an out-of-range vertex (MaxInt32).
	d, err := container.Parse(b, GRDBMagic)
	if err != nil {
		t.Fatal(err)
	}
	sec, err := d.Section(grdbAdjTo, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sec) == 0 {
		t.Skip("test corpus has no edges")
	}
	sec[0], sec[1], sec[2], sec[3] = 0xFF, 0xFF, 0xFF, 0x7F
	mapped, err := OpenDatabaseBytes(b)
	if err != nil {
		t.Fatalf("content corruption must pass the O(1) open, got %v", err)
	}
	if err := mapped.EnsureValid(); err == nil {
		t.Fatal("EnsureValid accepted an out-of-range neighbor")
	}
	if err := mapped.Validate(); err == nil {
		t.Fatal("Validate accepted an out-of-range neighbor")
	}
}

// TestGRDBGolden pins the on-disk format: the committed container must open
// and match a freshly built equivalent database, and saving that database
// must reproduce the committed bytes exactly. A failure means the format
// changed — bump the magic instead of breaking released files. Regenerate
// (after an intentional format change, alongside the magic bump) with
// GRDB_GOLDEN_REWRITE=1 go test -run TestGRDBGolden ./internal/graph/.
func TestGRDBGolden(t *testing.T) {
	const goldenPath = "testdata/golden.grdb"
	db := testDatabase(t, 12, 2, 42)
	blob := saveGRDB(t, db)
	if os.Getenv("GRDB_GOLDEN_REWRITE") == "1" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, want) {
		t.Fatalf("SaveDatabase output differs from the committed golden container (%d vs %d bytes)", len(blob), len(want))
	}
	mapped, err := OpenDatabaseBytes(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := mapped.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < db.Len(); i++ {
		requireGraphEqual(t, db.Graph(ID(i)), mapped.Graph(ID(i)))
	}
}
