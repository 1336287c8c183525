// Package container is the flat, offset-tabled file layout shared by the
// NBIDX004 index and the GRDB001 corpus. A container is readable in place
// from a byte slice — typically a memory mapping — so opening one costs
// O(header + directory), not O(data):
//
//	header     magic (8 bytes) | u64 sectionCount | u64 fileSize
//	directory  sectionCount × { u32 kind | u32 shard | u64 off | u64 len }
//	sections   raw little-endian arrays, each 8-byte aligned, zero-padded
//
// A (kind, shard) pair names one section and is unique within a file;
// formats without shards write 0 in the shard field. The package knows
// nothing of what the sections hold: Write lays them out, Parse checks that
// every section lies inside the data and that none overlap, and View turns
// one into a typed slice without copying. Each format checks its own
// sections' shapes.
package container

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"strings"

	"graphrep/internal/mmapfile"
)

const (
	// HeaderLen is the byte length of the file header.
	HeaderLen = 24
	// EntryLen is the byte length of one directory entry.
	EntryLen = 24
)

// Section is one section to write: its (kind, shard) key, its body length in
// bytes, and the function that writes exactly that many bytes.
type Section struct {
	Kind, Shard uint32
	Len         uint64
	Write       func(w io.Writer) error
}

// LE returns a section body writer emitting v, a fixed-size value or a slice
// of them, in little-endian — the single choke point for array sections, so
// no writer touches unsafe.
func LE(v any) func(io.Writer) error {
	return func(w io.Writer) error { return binary.Write(w, binary.LittleEndian, v) }
}

func pad8(n uint64) uint64 { return (n + 7) &^ 7 }

// name is the format name errors carry: the magic without trailing NULs.
func name(magic [8]byte) string { return strings.TrimRight(string(magic[:]), "\x00") }

// Write emits a container: the header, the directory, then every section
// body in the given order, each at the next 8-aligned offset. The bytes are
// a pure function of magic and the sections: offsets derive from the
// lengths alone, and padding is zero.
func Write(w io.Writer, magic [8]byte, secs []Section) error {
	off := uint64(HeaderLen + EntryLen*len(secs))
	offs := make([]uint64, len(secs))
	for i, sec := range secs {
		off = pad8(off)
		offs[i] = off
		off += sec.Len
	}
	fileSize := pad8(off)

	var hdr [HeaderLen]byte
	copy(hdr[:8], magic[:])
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(secs)))
	binary.LittleEndian.PutUint64(hdr[16:], fileSize)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var ent [EntryLen]byte
	for i, sec := range secs {
		binary.LittleEndian.PutUint32(ent[0:], sec.Kind)
		binary.LittleEndian.PutUint32(ent[4:], sec.Shard)
		binary.LittleEndian.PutUint64(ent[8:], offs[i])
		binary.LittleEndian.PutUint64(ent[16:], sec.Len)
		if _, err := w.Write(ent[:]); err != nil {
			return err
		}
	}
	var zeros [8]byte
	pos := uint64(HeaderLen + EntryLen*len(secs))
	for i, sec := range secs {
		if p := offs[i] - pos; p > 0 {
			if _, err := w.Write(zeros[:p]); err != nil {
				return err
			}
		}
		if err := sec.Write(w); err != nil {
			return fmt.Errorf("%s: write section kind %d shard %d: %w", name(magic), sec.Kind, sec.Shard, err)
		}
		pos = offs[i] + sec.Len
	}
	if p := fileSize - pos; p > 0 {
		if _, err := w.Write(zeros[:p]); err != nil {
			return err
		}
	}
	return nil
}

// Dir is a parsed directory: section lookup by (kind, shard).
type Dir struct {
	magic [8]byte
	secs  map[[2]uint32][]byte
}

// Parse validates the header and directory of a container whose magic must
// be magic: the file size, the section count, every entry's alignment and
// bounds (overflow-safe), unique (kind, shard) keys, and no overlapping
// sections. Section bodies are not examined; that is each format's job. The
// returned sections are subslices of data, each inside it.
func Parse(data []byte, magic [8]byte) (*Dir, error) {
	if len(data) >= 8 && [8]byte(data[:8]) != magic {
		return nil, fmt.Errorf("magic %q is not %s", data[:8], name(magic))
	}
	if len(data) < HeaderLen {
		return nil, fmt.Errorf("%s file of %d bytes is shorter than the header", name(magic), len(data))
	}
	count := binary.LittleEndian.Uint64(data[8:])
	fileSize := binary.LittleEndian.Uint64(data[16:])
	if fileSize != uint64(len(data)) {
		return nil, fmt.Errorf("%s header declares %d bytes, file has %d", name(magic), fileSize, len(data))
	}
	if count == 0 || count > uint64(len(data)-HeaderLen)/EntryLen {
		return nil, fmt.Errorf("implausible %s section count %d for %d bytes", name(magic), count, len(data))
	}
	dirEnd := uint64(HeaderLen) + count*EntryLen
	d := &Dir{magic: magic, secs: make(map[[2]uint32][]byte, count)}
	type span struct{ off, end uint64 }
	spans := make([]span, 0, count)
	for i := uint64(0); i < count; i++ {
		ent := data[HeaderLen+i*EntryLen:]
		kind := binary.LittleEndian.Uint32(ent[0:])
		shard := binary.LittleEndian.Uint32(ent[4:])
		off := binary.LittleEndian.Uint64(ent[8:])
		length := binary.LittleEndian.Uint64(ent[16:])
		if off%8 != 0 {
			return nil, fmt.Errorf("%s section %d (kind %d shard %d) at unaligned offset %d", name(magic), i, kind, shard, off)
		}
		if off < dirEnd || off > fileSize || length > fileSize-off {
			return nil, fmt.Errorf("%s section %d (kind %d shard %d) spans [%d, %d+%d) outside the file",
				name(magic), i, kind, shard, off, off, length)
		}
		key := [2]uint32{kind, shard}
		if _, dup := d.secs[key]; dup {
			return nil, fmt.Errorf("%s file has duplicate section kind %d shard %d", name(magic), kind, shard)
		}
		d.secs[key] = data[off : off+length : off+length]
		spans = append(spans, span{off: off, end: off + length})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].off < spans[j].off })
	for i := 1; i < len(spans); i++ {
		if spans[i].off < spans[i-1].end {
			return nil, fmt.Errorf("%s sections overlap at offset %d", name(magic), spans[i].off)
		}
	}
	return d, nil
}

// Section returns the named section's bytes, or an error naming it.
func (d *Dir) Section(kind, shard uint32) ([]byte, error) {
	b, ok := d.secs[[2]uint32{kind, shard}]
	if !ok {
		return nil, fmt.Errorf("%s file is missing section kind %d shard %d", name(d.magic), kind, shard)
	}
	return b, nil
}

// View returns the named section as a typed slice over its bytes (see
// mmapfile.View), naming the section on error.
func View[T mmapfile.Scalar](d *Dir, kind, shard uint32) ([]T, error) {
	b, err := d.Section(kind, shard)
	if err != nil {
		return nil, err
	}
	v, err := mmapfile.View[T](b)
	if err != nil {
		return nil, fmt.Errorf("%s section kind %d shard %d: %w", name(d.magic), kind, shard, err)
	}
	return v, nil
}
