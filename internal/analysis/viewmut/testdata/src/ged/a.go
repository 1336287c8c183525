// Package ged mirrors the embedding table of the real internal/ged: the
// deferred constructor retains caller-provided (possibly mapped) offsets
// and records, and Append is the sanctioned site that grows them.
package ged

// Table retains its offsets and blob.
type Table struct {
	offs []uint32 // want offs:`ViewHolder`
	blob []byte   // want blob:`ViewHolder`
}

// NewTableDeferred retains both slices without copying.
func NewTableDeferred(offs []uint32, blob []byte) *Table {
	return &Table{offs: offs, blob: blob}
}

// Append is whitelisted in ThawSites: view-backed slices are cap==len, so
// the appends reallocate before any byte lands.
func (t *Table) Append(rec []byte) *Table {
	blob := append(t.blob, rec...)
	return &Table{offs: append(t.offs, uint32(len(blob))), blob: blob}
}

// Patch is the seeded violation: a write into the records outside Append.
func (t *Table) Patch(b byte) {
	t.blob[0] = b // want `write into view-backed slice`
}
