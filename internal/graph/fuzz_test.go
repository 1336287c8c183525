package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// FuzzReadDatabase hardens the text parser: arbitrary input must either
// parse into a database that validates and round-trips, or fail cleanly —
// never panic or loop.
func FuzzReadDatabase(f *testing.F) {
	seeds := []string{
		"",
		"# empty\n",
		"g 0 1 0 0\nv 3\n",
		"g 0 2 1 1\nv 3 4\ne 0 1 7\nf 0.25\n",
		"g 0 3 3 2\nv 1 2 3\ne 0 1 10\ne 1 2 11\ne 0 2 12\nf 0.5 1.5\n",
		"g 0 1 0 0\nv 3\ng 1 1 0 0\nv 4\n",
		"g 0 2 1 0\nv 1 1\ne 1 0 0\n",
		"g 0 1 1 0\nv 1\ne 0 0 0\n",            // self loop
		"g 0 1 0 0\nv 99999999999999\n",        // label overflow
		"g 5 1 0 0\nv 3\n",                     // wrong id
		"g 0 2 2 0\nv 1 1\ne 0 1 0\ne 0 1 1\n", // duplicate edge
		"g 0 -1 0 0\n\n",                       // negative order
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		db, err := ReadDatabase(strings.NewReader(input))
		if err != nil {
			return // clean failure
		}
		if err := db.Validate(); err != nil {
			t.Fatalf("parsed database fails validation: %v", err)
		}
		// Round trip must be stable.
		var buf bytes.Buffer
		if err := WriteDatabase(&buf, db); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		db2, err := ReadDatabase(&buf)
		if err != nil {
			t.Fatalf("re-parse: %v", err)
		}
		if db2.Len() != db.Len() {
			t.Fatalf("round trip changed length: %d vs %d", db2.Len(), db.Len())
		}
	})
}

// FuzzReadGRDB hardens the flat container against hostile bytes. The safety
// contract has two gates: OpenDatabaseBytes may reject outright, and
// EnsureValid may reject content the O(1) open skipped — but once both pass,
// every read path must be safe to drive to completion (no panic, no
// out-of-range access through the zero-copy views).
func FuzzReadGRDB(f *testing.F) {
	// Seed with valid containers of varied shape plus cheap corruptions of
	// one of them, so the fuzzer starts inside and just past the format.
	valid := func(n, dim int, seed int64) []byte {
		rng := rand.New(rand.NewSource(seed))
		graphs := make([]*Graph, n)
		for i := range graphs {
			order := 1 + rng.Intn(5)
			b := NewBuilder(order)
			for v := 0; v < order; v++ {
				b.AddVertex(Label(rng.Intn(4)))
			}
			for u := 0; u < order; u++ {
				for v := u + 1; v < order; v++ {
					if rng.Intn(2) == 0 {
						b.AddEdge(u, v, Label(rng.Intn(3)))
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
				f.Fatal(err)
			}
			graphs[i] = g
		}
		db, err := NewDatabase(graphs)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SaveDatabase(&buf, db); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	base := valid(6, 2, 1)
	f.Add([]byte{})
	f.Add(base)
	f.Add(valid(1, 0, 2))
	f.Add(valid(10, 1, 3))
	for _, pos := range []int{0, 8, 16, 24, 40, len(base) / 2, len(base) - 8} {
		mut := append([]byte(nil), base...)
		mut[pos] ^= 0x81
		f.Add(mut)
	}
	f.Add(base[:len(base)-4])
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := OpenDatabaseBytes(data)
		if err != nil {
			return // clean rejection at open
		}
		if err := db.EnsureValid(); err != nil {
			return // clean rejection at the deferred content scan
		}
		// Both gates passed: every read surface must now be total.
		for i := 0; i < db.Len(); i++ {
			g := db.Graph(ID(i))
			_ = g.Edges()
			_ = g.Stars()
			_ = g.WLHash(2)
			_ = g.Components()
			for v := 0; v < g.Order(); v++ {
				_ = g.Degree(v)
				_ = g.VertexLabel(v)
			}
			_ = db.Features(ID(i))
		}
		// A validated container must re-save into a container with identical
		// content. (Not necessarily identical bytes: container.Parse tolerates
		// section orderings and padding gaps SaveDatabase never emits.)
		var buf bytes.Buffer
		if err := SaveDatabase(&buf, db); err != nil {
			t.Fatalf("re-save of validated container: %v", err)
		}
		db2, err := OpenDatabaseBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("reopen of re-saved container: %v", err)
		}
		if err := db2.EnsureValid(); err != nil {
			t.Fatalf("re-saved container fails validation: %v", err)
		}
		if db2.Len() != db.Len() {
			t.Fatalf("re-save changed length: %d vs %d", db2.Len(), db.Len())
		}
		for i := 0; i < db.Len(); i++ {
			if db2.Graph(ID(i)).WLHash(2) != db.Graph(ID(i)).WLHash(2) {
				t.Fatalf("re-save changed graph %d", i)
			}
		}
	})
}
