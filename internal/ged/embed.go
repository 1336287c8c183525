package ged

import (
	"encoding/binary"
	"io"
	"slices"

	"graphrep/internal/graph"
)

// Embedding is the precomputed filter vector of one graph: the sorted
// center-label histogram, the sorted spoke-type histogram (one dimension per
// distinct (edge label, leaf label) pair), and the padding-cost prefix sums.
// Its L1-style comparison LowerBound proves d(a,b) > θ for most far pairs
// from the two cached vectors alone — no cost matrix, no assignment work —
// which makes it the first tier of the bounded distance cascade (the
// filter-verify shape of EmbAssi and MSQ-Index, specialised to the star
// metric).
//
// Embeddings are a pure function of the graph, so the per-shard copies the
// index persists are byte-identical to the ones the metric computes lazily,
// and index bytes stay independent of whether the bounded kernel is enabled.
type Embedding struct {
	// padPrefix[k] is the sum of the k smallest padding costs (1 + degree)
	// over this graph's stars: the cheapest possible price of matching k
	// padding stars ε against k distinct stars of this graph.
	padPrefix []float64
	// centers is the center-label histogram, sorted by label.
	centers []embDim
	// spokes is the spoke-type histogram — counts per distinct (edge label,
	// leaf label) pair summed over all stars — sorted by packed key.
	spokes []embDim
}

// embDim is one histogram dimension: a packed key and its multiplicity.
type embDim struct {
	key   uint64
	count int32
}

// spokeKey packs a spoke type into one comparable dimension key.
func spokeKey(s graph.Spoke) uint64 {
	return uint64(s.EdgeLabel)<<32 | uint64(s.LeafLabel)
}

// NewEmbedding computes the filter vector of g.
func NewEmbedding(g *graph.Graph) *Embedding {
	return newEmbeddingFromStars(g.Stars())
}

// newEmbeddingFromStars computes the filter vector from an existing star
// decomposition (NewStarSig reuses its stars instead of re-decomposing).
func newEmbeddingFromStars(stars []graph.Star) *Embedding {
	e := &Embedding{padPrefix: make([]float64, len(stars)+1)}
	pad := make([]float64, len(stars))
	centers := make([]uint64, len(stars))
	nSpokes := 0
	for i := range stars {
		pad[i] = 1 + float64(stars[i].Degree())
		centers[i] = uint64(stars[i].Center)
		nSpokes += stars[i].Degree()
	}
	slices.Sort(centers)
	slices.Sort(pad)
	for i, c := range pad {
		e.padPrefix[i+1] = e.padPrefix[i] + c
	}
	e.centers = countRuns(centers)
	spokes := make([]uint64, 0, nSpokes)
	for i := range stars {
		for _, s := range stars[i].Spokes {
			spokes = append(spokes, spokeKey(s))
		}
	}
	slices.Sort(spokes)
	e.spokes = countRuns(spokes)
	return e
}

// countRuns collapses a sorted key slice into (key, multiplicity) dimensions.
func countRuns(keys []uint64) []embDim {
	if len(keys) == 0 {
		return nil
	}
	dims := make([]embDim, 0, 8)
	run := keys[0]
	n := int32(0)
	for _, k := range keys {
		if k != run {
			dims = append(dims, embDim{key: run, count: n})
			run, n = k, 0
		}
		n++
	}
	return append(dims, embDim{key: run, count: n})
}

// Stars returns the number of stars (vertices) of the embedded graph.
func (e *Embedding) Stars() int { return len(e.padPrefix) - 1 }

// Dims returns the number of histogram dimensions (distinct center labels
// plus distinct spoke types) — the cost of one LowerBound evaluation.
func (e *Embedding) Dims() int { return len(e.centers) + len(e.spokes) }

// Bytes approximates the embedding's memory footprint.
func (e *Embedding) Bytes() int64 {
	return int64(len(e.padPrefix))*8 + int64(len(e.centers)+len(e.spokes))*16
}

// LowerBound returns a proven lower bound on the star distance between the
// two embedded graphs, from the cached vectors alone.
//
// Every matched star pair's ground cost decomposes exactly as
// centerMismatch + |spokes Δ spokes| (a padding pair (s, ε) contributing
// 1 + deg(s) = one mismatch against ε's unique center plus deg(s) spoke
// deletions). Summed over any matching of the padded multisets:
//
//   - at most Σ_l min(cnt_a[l], cnt_b[l]) pairs agree on their center, so the
//     mismatch part is ≥ max(n1,n2) − Σ_l min — the center-histogram bound;
//   - per pair |A Δ B| = Σ_p |cnt_A(p) − cnt_B(p)|, and the coordinate-wise
//     triangle inequality turns the sum over pairs into
//     Σ_p |spokes_a[p] − spokes_b[p]| — the spoke-histogram L1 bound.
//
// The two parts bound disjoint cost components, so their sum is admissible.
// LowerBound additionally takes the max with the size/padding bound (the
// |n1−n2| padding stars must each match a distinct real star, paying at
// least the padPrefix total), which is incomparable to the histogram sum.
// The result subsumes the retired standalone size and histogram cascade
// tiers: it is ≥ both, always.
func (e *Embedding) LowerBound(o *Embedding) float64 {
	n1, n2 := e.Stars(), o.Stars()
	n := n1
	if n2 > n {
		n = n2
	}
	if n == 0 {
		return 0
	}
	var sizeLB float64
	switch {
	case n1 < n2:
		sizeLB = o.padPrefix[n2-n1]
	case n2 < n1:
		sizeLB = e.padPrefix[n1-n2]
	}
	common := int32(0)
	for i, j := 0, 0; i < len(e.centers) && j < len(o.centers); {
		a, b := e.centers[i], o.centers[j]
		switch {
		case a.key == b.key:
			if b.count < a.count {
				common += b.count
			} else {
				common += a.count
			}
			i++
			j++
		case a.key < b.key:
			i++
		default:
			j++
		}
	}
	spokeL1 := int64(0)
	i, j := 0, 0
	for i < len(e.spokes) && j < len(o.spokes) {
		a, b := e.spokes[i], o.spokes[j]
		switch {
		case a.key == b.key:
			d := int64(a.count) - int64(b.count)
			if d < 0 {
				d = -d
			}
			spokeL1 += d
			i++
			j++
		case a.key < b.key:
			spokeL1 += int64(a.count)
			i++
		default:
			spokeL1 += int64(b.count)
			j++
		}
	}
	for ; i < len(e.spokes); i++ {
		spokeL1 += int64(e.spokes[i].count)
	}
	for ; j < len(o.spokes); j++ {
		spokeL1 += int64(o.spokes[j].count)
	}
	lb := float64(int64(n)-int64(common)) + float64(spokeL1)
	if sizeLB > lb {
		lb = sizeLB
	}
	return lb
}

// Encode writes the embedding as one record of the fixed little-endian
// layout a Table holds (see NewTableFromEmbeddings). The output is a pure
// function of the embedded graph: dimensions are sorted, so re-encoding a
// decoded embedding reproduces the bytes exactly.
func (e *Embedding) Encode(w io.Writer) error {
	n := e.Stars()
	hdr := [3]uint32{uint32(n), uint32(len(e.centers)), uint32(len(e.spokes))}
	if err := binary.Write(w, binary.LittleEndian, hdr[:]); err != nil {
		return err
	}
	// Pad costs are small integers; store the per-star deltas of the prefix.
	pads := make([]uint32, n)
	for i := 0; i < n; i++ {
		pads[i] = uint32(e.padPrefix[i+1] - e.padPrefix[i])
	}
	if err := binary.Write(w, binary.LittleEndian, pads); err != nil {
		return err
	}
	for _, d := range e.centers {
		rec := [2]uint32{uint32(d.key), uint32(d.count)}
		if err := binary.Write(w, binary.LittleEndian, rec[:]); err != nil {
			return err
		}
	}
	for _, d := range e.spokes {
		if err := binary.Write(w, binary.LittleEndian, d.key); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, d.count); err != nil {
			return err
		}
	}
	return nil
}
