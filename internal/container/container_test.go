package container

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
)

var (
	indexMagic  = [8]byte{'N', 'B', 'I', 'D', 'X', '0', '0', '4'}
	corpusMagic = [8]byte{'G', 'R', 'D', 'B', '0', '0', '1', 0}
)

// fixture writes a small container: three sections, two of them with
// unaligned lengths, so the layout pads between bodies and at the end.
func fixture(t *testing.T, magic [8]byte) []byte {
	t.Helper()
	raw := func(b []byte) func(io.Writer) error {
		return func(w io.Writer) error { _, err := w.Write(b); return err }
	}
	var buf bytes.Buffer
	err := Write(&buf, magic, []Section{
		{Kind: 1, Shard: 0, Len: 5, Write: raw([]byte("hello"))},
		{Kind: 2, Shard: 0, Len: 16, Write: LE([]uint64{7, 9})},
		{Kind: 2, Shard: 1, Len: 3, Write: raw([]byte{1, 2, 3})},
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParseRejectsCorruptLayout walks malformed headers and directories
// through Parse for both magics: each must fail with an error, never a
// panic, and a wrong magic must be named in the error. The unmutated file
// must parse, so each failure is the mutation's doing.
func TestParseRejectsCorruptLayout(t *testing.T) {
	le := binary.LittleEndian
	entry := func(b []byte, i int) []byte { return b[HeaderLen+i*EntryLen:] }
	cases := []struct {
		name   string
		mutate func(b []byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"short header", func(b []byte) []byte { return b[:10] }},
		{"wrong magic", func(b []byte) []byte { copy(b, "NBIDX003"); return b }},
		{"declared size differs", func(b []byte) []byte { return b[:len(b)-8] }},
		{"zero section count", func(b []byte) []byte { le.PutUint64(b[8:], 0); return b }},
		{"oversized section count", func(b []byte) []byte { le.PutUint64(b[8:], 1<<40); return b }},
		{"unaligned offset", func(b []byte) []byte {
			e := entry(b, 1)
			le.PutUint64(e[8:], le.Uint64(e[8:])+4)
			return b
		}},
		{"span past the end", func(b []byte) []byte {
			e := entry(b, 2)
			le.PutUint64(e[16:], uint64(len(b)))
			return b
		}},
		{"offset inside the directory", func(b []byte) []byte { le.PutUint64(entry(b, 0)[8:], 8); return b }},
		{"overlapping sections", func(b []byte) []byte {
			e := entry(b, 0)
			le.PutUint64(e[16:], 12) // section 0 now runs into section 1
			return b
		}},
		{"duplicate (kind, shard)", func(b []byte) []byte {
			le.PutUint32(entry(b, 2)[4:], 0) // (2, 1) becomes a second (2, 0)
			return b
		}},
	}
	for _, magic := range [][8]byte{indexMagic, corpusMagic} {
		valid := fixture(t, magic)
		// The unmutated file parses, and its sections read back as written.
		d, err := Parse(valid, magic)
		if err != nil {
			t.Fatalf("%q: %v", magic, err)
		}
		if b, err := d.Section(1, 0); err != nil || string(b) != "hello" {
			t.Fatalf("%q: section (1, 0) = %q, %v", magic, b, err)
		}
		if v, err := View[uint64](d, 2, 0); err != nil || len(v) != 2 || v[0] != 7 || v[1] != 9 {
			t.Fatalf("%q: section (2, 0) = %v, %v", magic, v, err)
		}
		if _, err := d.Section(2, 2); err == nil {
			t.Fatalf("%q: a missing section was found", magic)
		}
		for _, tc := range cases {
			data := tc.mutate(append([]byte(nil), valid...))
			_, err := Parse(data, magic)
			if err == nil {
				t.Errorf("%q %s: corrupt container parsed cleanly", magic, tc.name)
				continue
			}
			if tc.name == "wrong magic" && !strings.Contains(err.Error(), "NBIDX003") {
				t.Errorf("%q %s: error %q does not name the magic", magic, tc.name, err)
			}
		}
	}
}
