// Package ged mirrors the embedding table of the real internal/ged: the
// deferred constructor retains caller-provided (possibly mapped) offsets
// and records, Append is the sanctioned site that grows them, and
// appendRecord is the helper that appends one record to the blob it is
// handed.
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

// appendRecord appends one record to rec: a mutation of its parameter.
func appendRecord(rec []byte, b byte) []byte { // want appendRecord:`MutatesParams\(0\)`
	return append(rec, b, b)
}

// appendTwice reaches the mutation through appendRecord.
func appendTwice(rec []byte, b byte) []byte { // want appendTwice:`MutatesParams\(0\)`
	return appendRecord(appendRecord(rec, b), b)
}

// Append is whitelisted in ThawSites: view-backed slices are cap==len, so
// the appends reallocate before any byte lands.
func (t *Table) Append(b byte) *Table {
	blob := appendRecord(t.blob, b)
	return &Table{offs: append(t.offs, uint32(len(blob))), blob: blob}
}

// Patch is the seeded violation: a write into the records outside Append.
func (t *Table) Patch(b byte) {
	t.blob[0] = b // want `write into view-backed slice`
}

// Extend is the seeded violation a helper hides: appendRecord appends to
// the view-backed blob it is passed, outside any thaw site.
func (t *Table) Extend(b byte) []byte {
	return appendTwice(t.blob, b) // want `view-backed slice t.blob passed to appendTwice, which mutates that parameter`
}

// Record copies the blob first, so the helper appends to heap memory.
func (t *Table) Record(b byte) []byte {
	return appendRecord(append([]byte(nil), t.blob...), b)
}
