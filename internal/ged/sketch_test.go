package ged

import (
	"math"
	"testing"

	"graphrep/internal/dataset"
	"graphrep/internal/graph"
)

// sketchBound is the lower bound two sketch rows prove on the star distance.
func sketchBound(a, b []uint16) float64 { return float64(sketchSum(a, b)) / 2 }

// sketchRows returns the sketch row of each embedding, read from its record
// in an encoded table the way an index derives them.
func sketchRows(t *testing.T, embs ...*Embedding) [][]uint16 {
	t.Helper()
	tab, err := NewTableFromEmbeddings(embs)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]uint16, len(embs))
	for i := range rows {
		rows[i] = tab.AppendSketch(i, nil)
	}
	return rows
}

// The sketch filter's admissibility: on pairs from the dud, dblp and amazon
// generators, sketchBound ≤ Embedding.LowerBound ≤ StarDistance, the bound
// is symmetric and zero on a graph and itself, and SketchWithin accepts a
// pair exactly when sketchBound ≤ θ. Rows are read from the encoded table,
// as an index reads them.
func TestSketchBoundAdmissible(t *testing.T) {
	for _, name := range []string{"dud", "dblp", "amazon"} {
		db, err := dataset.ByName(name, 40, 5)
		if err != nil {
			t.Fatal(err)
		}
		embs := make([]*Embedding, db.Len())
		for i := range embs {
			embs[i] = NewEmbedding(db.Graph(graph.ID(i)))
		}
		rows := sketchRows(t, embs...)
		pruned := 0
		for i := range rows {
			if sb := sketchBound(rows[i], rows[i]); sb != 0 {
				t.Fatalf("%s graph %d: self bound %v", name, i, sb)
			}
			for j := i + 1; j < len(rows); j++ {
				sb, lb := sketchBound(rows[i], rows[j]), embs[i].LowerBound(embs[j])
				d := StarDistance(db.Graph(graph.ID(i)), db.Graph(graph.ID(j)))
				if sb > lb || lb > d {
					t.Fatalf("%s pair (%d,%d): sketch %v, LowerBound %v, distance %v", name, i, j, sb, lb, d)
				}
				if back := sketchBound(rows[j], rows[i]); back != sb {
					t.Fatalf("%s pair (%d,%d): asymmetric sketch bound %v vs %v", name, i, j, sb, back)
				}
				for _, theta := range []float64{sb, sb - 0.5, sb - 0.25, sb + 0.25, d} {
					if theta < 0 {
						continue
					}
					if got := SketchWithin(rows[i], rows[j], SketchLimit(theta)); got != (sb <= theta) {
						t.Fatalf("%s pair (%d,%d) θ=%v: SketchWithin %v, bound %v", name, i, j, theta, got, sb)
					}
				}
				if sb > 0 {
					pruned++
				}
			}
		}
		if pruned == 0 {
			t.Fatalf("%s: the sketch bound was zero on every pair", name)
		}
	}
}

// Cells saturate at the uint16 cap instead of wrapping, which keeps the
// bound admissible: two graphs of 65541 and 65530 isolated stars with one
// label are 11 apart in LowerBound, and their saturated rows differ by 5 in
// the count and center cells. Wrapped rows (65541 mod 65536 = 5) would
// claim a bound near 65525. Spoke cells saturate the same way: a hub with
// 70000 leaves against one with 69990.
func TestSketchSaturates(t *testing.T) {
	isolated := func(n int) *Embedding {
		b := graph.NewBuilder(n)
		for i := 0; i < n; i++ {
			b.AddVertex(1)
		}
		g, err := b.Build(0)
		if err != nil {
			t.Fatal(err)
		}
		return NewEmbedding(g)
	}
	hub := func(leaves int) *Embedding {
		b := graph.NewBuilder(leaves + 1)
		for i := 0; i <= leaves; i++ {
			b.AddVertex(graph.Label(i % 2))
		}
		for i := 1; i <= leaves; i++ {
			b.AddEdge(0, i, 0)
		}
		g, err := b.Build(0)
		if err != nil {
			t.Fatal(err)
		}
		return NewEmbedding(g)
	}
	for _, pair := range [][2]*Embedding{{isolated(65541), isolated(65530)}, {hub(70000), hub(69990)}} {
		a, b := pair[0], pair[1]
		rows := sketchRows(t, a, b)
		ra, rb := rows[0], rows[1]
		if ra[0] != math.MaxUint16 {
			t.Fatalf("star count cell %d, want saturated %d", ra[0], math.MaxUint16)
		}
		saturated := 0
		for _, c := range ra {
			if c == math.MaxUint16 {
				saturated++
			}
		}
		if saturated < 2 {
			t.Fatalf("row %v: want the count and a histogram cell saturated", ra)
		}
		sb, lb := sketchBound(ra, rb), a.LowerBound(b)
		if sb > lb {
			t.Fatalf("saturated sketch bound %v > LowerBound %v", sb, lb)
		}
	}
}
