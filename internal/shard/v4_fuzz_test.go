package shard

import (
	"bytes"
	"math/rand"
	"testing"

	"graphrep/internal/container"
	"graphrep/internal/dataset"
	"graphrep/internal/metric"
)

// FuzzReadIndexV4 is the hostile-input contract of the zero-copy load path:
// whatever bytes arrive — truncated files, corrupt directories, overlapping
// or misaligned sections, mangled array contents — ReadBytes and the first
// session over its result either return an error or yield queries that run
// without faulting. Nothing on the path may panic or index outside the
// input, because in production the input is a shared read-only mapping of an
// arbitrary on-disk file.
func FuzzReadIndexV4(f *testing.F) {
	db, err := dataset.ByName("dud", 40, 11)
	if err != nil {
		f.Fatal(err)
	}
	m := metric.NewCache(metric.Star(db))
	set, err := Build(db, m, Options{Shards: 2, NumVPs: 3, Branching: 3, ThetaGrid: []float64{3, 6, 9}},
		rand.New(rand.NewSource(11)))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := set.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()

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

	thetas := set.Grid()
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
// first-space ordering (the first row of its byDist section) lists its first
// ID twice: entry 1 is overwritten with entry 0. Every entry stays in range,
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
	sec, err := d.Section(secByDist, 0)
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
	db, err := dataset.ByName("dud", 40, 11)
	if err != nil {
		t.Fatal(err)
	}
	m := metric.NewCache(metric.Star(db))
	set, err := Build(db, m, Options{Shards: 2, NumVPs: 3, Branching: 3, ThetaGrid: []float64{3, 6, 9}},
		rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := set.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := ReadBytes(repeatOrderingEntry(t, buf.Bytes()), db, m)
	if err != nil {
		t.Fatalf("ReadBytes: %v (the repeat should pass the O(1) shape checks)", err)
	}
	if _, err := s.NewSession(func([]float64) bool { return true }); err == nil {
		t.Fatal("NewSession accepted an ordering that repeats an ID")
	}
}
