package shard

import (
	"bytes"
	"math/rand"
	"testing"

	"graphrep/internal/container"
	"graphrep/internal/dataset"
	"graphrep/internal/graph"
	"graphrep/internal/metric"
)

// v4TestFile builds the small two-shard set the tests below mutate and
// returns its database, metric, grid and encoded NBIDX004 bytes.
func v4TestFile(tb testing.TB) (*graph.Database, metric.Metric, []float64, []byte) {
	tb.Helper()
	db, err := dataset.ByName("dud", 40, 11)
	if err != nil {
		tb.Fatal(err)
	}
	m := metric.NewCache(metric.Star(db))
	set, err := Build(db, m, Options{Shards: 2, NumVPs: 3, Branching: 3, ThetaGrid: []float64{3, 6, 9}},
		rand.New(rand.NewSource(11)))
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := set.Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	return db, m, set.Grid(), buf.Bytes()
}

// FuzzReadIndexV4 is the hostile-input contract of the zero-copy load path:
// whatever bytes arrive — truncated files, corrupt directories, overlapping
// or misaligned sections, mangled array contents — ReadBytes and the first
// session over its result either return an error or yield queries that run
// without faulting. Nothing on the path may panic or index outside the
// input, because in production the input is a shared read-only mapping of an
// arbitrary on-disk file.
func FuzzReadIndexV4(f *testing.F) {
	db, m, thetas, valid := v4TestFile(f)

	// Seeds: the pristine file, truncations at structurally interesting
	// boundaries, and single-byte corruptions sprinkled over the header,
	// directory, and section bodies. The mutator takes it from there.
	f.Add(valid)
	for _, cut := range []int{0, 7, 8, 23, 24, 48, len(valid) / 2, len(valid) - 1} {
		if cut <= len(valid) {
			f.Add(valid[:cut])
		}
	}
	for _, pos := range []int{8, 16, 28, 32, 40, 100, len(valid) - 9} {
		mut := append([]byte(nil), valid...)
		mut[pos] ^= 0xff
		f.Add(mut)
	}
	f.Add(repeatOrderingEntry(f, valid))
	f.Add(repeatLeafCentroid(f, valid))

	theta := thetas[len(thetas)/2]
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadBytes(data, db, m)
		if err != nil {
			return
		}
		// ReadBytes checks shape (header, directory, section lengths) in
		// O(1) per shard; the O(n) content validation is deferred to first
		// use, so corrupt content must surface HERE as a session error —
		// never as a panic or out-of-range access.
		sess, err := s.NewSession(func(fv []float64) bool { return fv[0] > 0.4 })
		if err != nil {
			return
		}
		// Content validated too: queries must now be safe. (They need not
		// be meaningful — a fuzzer CAN craft a consistent file describing a
		// different clustering — but every array access must stay in range.)
		if _, err := sess.TopK(theta, 3); err != nil {
			t.Fatalf("query on validated v4 index: %v", err)
		}
	})
}

// repeatOrderingEntry returns a copy of the index file data whose shard-0
// first-space ordering (its order section) lists its first ID twice: entry 1 is overwritten with entry 0. Every entry stays in range,
// so only the permutation check in vantage.Ordering.Validate catches it; the
// graph it displaces would have no row in a session's relevant-set view.
func repeatOrderingEntry(tb testing.TB, data []byte) []byte {
	tb.Helper()
	mut := append([]byte(nil), data...)
	// Parse returns subslices of mut, so the section aliases the copy.
	d, err := container.Parse(mut, magic)
	if err != nil {
		tb.Fatal(err)
	}
	sec, err := d.Section(secOrder, 0)
	if err != nil {
		tb.Fatal(err)
	}
	copy(sec[4:8], sec[0:4])
	return mut
}

// TestV4RepeatedOrderingEntry checks that a file whose first-space ordering
// repeats an in-range ID is refused at the first session. Every graph is
// relevant, so a session over the unchecked file would fault building its
// relevant-set view; the fuzz seed alone need not, since its relevance may
// leave the displaced graph out.
func TestV4RepeatedOrderingEntry(t *testing.T) {
	db, m, _, data := v4TestFile(t)
	s, err := ReadBytes(repeatOrderingEntry(t, data), db, m)
	if err != nil {
		t.Fatalf("ReadBytes: %v (the repeat should pass the O(1) shape checks)", err)
	}
	if _, err := s.NewSession(func([]float64) bool { return true }); err == nil {
		t.Fatal("NewSession accepted an ordering that repeats an ID")
	}
}

// repeatLeafCentroid returns a copy of the index file data whose shard-0
// tree lists one graph under two leaves: the second leaf's centroid is
// overwritten with the first leaf's. Every value stays in range and the leaf
// count is unchanged, so only the distinct-leaves check of the part's
// deferred validation catches it; the graph it displaces would have no leaf.
func repeatLeafCentroid(tb testing.TB, data []byte) []byte {
	tb.Helper()
	mut := append([]byte(nil), data...)
	// Parse returns subslices of mut, so the sections alias the copy.
	d, err := container.Parse(mut, magic)
	if err != nil {
		tb.Fatal(err)
	}
	leaves, err := d.Section(secLeaf, 0)
	if err != nil {
		tb.Fatal(err)
	}
	centroids, err := d.Section(secCentroid, 0)
	if err != nil {
		tb.Fatal(err)
	}
	first := -1
	for i, leaf := range leaves {
		if leaf != 1 {
			continue
		}
		if first < 0 {
			first = i
			continue
		}
		copy(centroids[4*i:4*i+4], centroids[4*first:4*first+4])
		return mut
	}
	tb.Fatal("shard 0 has fewer than two leaves")
	return nil
}

// TestV4RepeatedLeafCentroid checks that a file whose tree puts one graph
// under two leaves is refused at the first session. Nothing else in the
// file is out of range, so this is the check that stands in for a stored
// graph-to-leaf map: with as many leaves as graphs, distinct leaf graphs
// mean every graph has exactly one leaf.
func TestV4RepeatedLeafCentroid(t *testing.T) {
	db, m, _, data := v4TestFile(t)
	s, err := ReadBytes(repeatLeafCentroid(t, data), db, m)
	if err != nil {
		t.Fatalf("ReadBytes: %v (the repeat should pass the O(1) shape checks)", err)
	}
	if _, err := s.NewSession(func([]float64) bool { return true }); err == nil {
		t.Fatal("NewSession accepted a tree that puts one graph under two leaves")
	}
}
