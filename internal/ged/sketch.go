package ged

import (
	"encoding/binary"
	"math"
)

// A sketch row is a fixed-width, saturating summary of one graph's star
// histograms: the star count n, the center-label counts hashed into
// sketchCenters buckets and the spoke-type counts hashed into sketchSpokes
// buckets, one uint16 cell each. Two rows give an admissible lower bound on
// the star distance in one pass over SketchWidth small integers, cheap
// enough to run on every vantage candidate of a query's pass (the
// filter-verify shape of EmbAssi, with the embedding folded into buckets):
//
//   - LowerBound's center term is max(n1,n2) − Σ_l min(c1_l,c2_l), which
//     equals ½(|n1−n2| + Σ_l |c1_l−c2_l|) because each graph's center counts
//     sum to its n;
//   - merging labels into buckets can only shrink Σ|Δ| (triangle
//     inequality), and the same holds for the spoke-histogram L1 term;
//   - saturating a cell at the cap c keeps the bound admissible, since
//     |min(a,c) − min(b,c)| ≤ |a−b|.
//
// So the sketch bound, half of sketchSum, is ≤ Embedding.LowerBound ≤ d_star.
const (
	sketchCenters = 8
	sketchSpokes  = 16
	// SketchWidth is the number of uint16 cells in one sketch row.
	SketchWidth = 1 + sketchCenters + sketchSpokes
)

// sketchBucket hashes a histogram dimension key into one of k buckets with
// a fixed multiplicative hash, so every row of every index agrees.
func sketchBucket(key uint64, k int) int {
	return int((key * 0x9E3779B97F4A7C15) >> 40 % uint64(k))
}

// sketchCells accumulates one sketch row before saturation.
type sketchCells [SketchWidth]int64

func (c *sketchCells) center(key uint64, count int64) {
	c[1+sketchBucket(key, sketchCenters)] += count
}

func (c *sketchCells) spoke(key uint64, count int64) {
	c[1+sketchCenters+sketchBucket(key, sketchSpokes)] += count
}

// appendTo appends the row to rows, every cell saturated at the uint16 cap.
func (c *sketchCells) appendTo(rows []uint16) []uint16 {
	for _, v := range c {
		rows = append(rows, uint16(min(v, math.MaxUint16)))
	}
	return rows
}

// AppendSketch appends record i's sketch row to rows, read straight from the
// encoded record without decoding an Embedding: the one way sketch rows are
// made. The table must have passed Validate.
func (t *Table) AppendSketch(i int, rows []uint16) []uint16 {
	rec := t.Record(i)
	n := int(binary.LittleEndian.Uint32(rec[0:]))
	nc := int(binary.LittleEndian.Uint32(rec[4:]))
	ns := int(binary.LittleEndian.Uint32(rec[8:]))
	var c sketchCells
	c[0] = int64(n)
	p := 12 + 4*n
	for j := 0; j < nc; j++ {
		c.center(uint64(binary.LittleEndian.Uint32(rec[p:])), int64(binary.LittleEndian.Uint32(rec[p+4:])))
		p += 8
	}
	for j := 0; j < ns; j++ {
		c.spoke(binary.LittleEndian.Uint64(rec[p:]), int64(binary.LittleEndian.Uint32(rec[p+8:])))
		p += 12
	}
	return c.appendTo(rows)
}

// sketchSum returns |Δn| + Σ|ΔC_b| + 2·Σ|ΔS_b| over two sketch rows: twice
// their lower bound, as an integer. The absolute differences are
// branch-free, since whether a cell of one row exceeds the other's is
// unpredictable across a pass.
func sketchSum(a, b []uint16) int {
	a, b = a[:SketchWidth], b[:SketchWidth]
	s, t := 0, 0
	for i := 0; i < 1+sketchCenters; i++ {
		d := int(a[i]) - int(b[i])
		m := d >> 63
		s += (d ^ m) - m
	}
	for i := 1 + sketchCenters; i < SketchWidth; i++ {
		d := int(a[i]) - int(b[i])
		m := d >> 63
		t += (d ^ m) - m
	}
	return s + 2*t
}

// SketchLimit returns ⌊2θ⌋, the integer SketchWithin compares against,
// clamped so that θ = +Inf admits every pair.
func SketchLimit(theta float64) int {
	if lim := math.Floor(2 * theta); lim < math.MaxInt32 {
		return int(lim)
	}
	return math.MaxInt32
}

// SketchWithin reports whether two sketch rows leave the star distance of
// their graphs possibly ≤ θ, given lim = SketchLimit(θ): that is, whether
// their bound, half of sketchSum, is ≤ θ. A false result proves the
// distance exceeds θ.
func SketchWithin(a, b []uint16, lim int) bool { return sketchSum(a, b) <= lim }
