package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"graphrep"
	"graphrep/internal/atomicfile"
)

// failingWriter passes through the first n bytes, then fails: a save that
// dies partway, as on a full disk.
type failingWriter struct {
	w io.Writer
	n int
}

func (f *failingWriter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		written, _ := f.w.Write(p[:f.n])
		f.n = 0
		return written, errors.New("disk full")
	}
	f.n -= len(p)
	return f.w.Write(p)
}

// TestFailedIndexSaveKeepsExistingFile persists an index, then fails a second
// save of a different index partway through: the file on disk must stay
// byte-identical and no temporary file may be left behind. A successful save
// then replaces it.
func TestFailedIndexSaveKeepsExistingFile(t *testing.T) {
	db, err := graphrep.GenerateDataset("dud", 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	first, err := graphrep.Open(db, graphrep.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	second, err := graphrep.Open(db, graphrep.Options{Seed: 2, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "index.nbx")
	if err := atomicfile.Write(path, first.SaveIndex); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	err = atomicfile.Write(path, func(w io.Writer) error {
		return second.SaveIndex(&failingWriter{w: w, n: len(want) / 2})
	})
	if err == nil {
		t.Fatal("failing save reported success")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("failed save changed the index file: %d bytes, want %d", len(got), len(want))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only index.nbx", names)
	}

	if err := atomicfile.Write(path, second.SaveIndex); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := second.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, buf.Bytes()) {
		t.Fatal("successful save did not replace the index file")
	}
	reopened, err := graphrep.OpenWithIndexFile(db, path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Shards() != 2 {
		t.Fatalf("reopened index has %d shards, want 2", reopened.Shards())
	}
}

// TestIndexSaveFileMode checks the permission bits a save leaves: 0644 for a
// new file, and the old file's bits when one is replaced.
func TestIndexSaveFileMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index.nbx")
	write := func(w io.Writer) error { _, err := w.Write([]byte("index")); return err }
	mode := func() os.FileMode {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Mode().Perm()
	}
	if err := atomicfile.Write(path, write); err != nil {
		t.Fatal(err)
	}
	if got := mode(); got != 0o644 {
		t.Fatalf("new index file mode %v, want 0644", got)
	}
	if err := os.Chmod(path, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := atomicfile.Write(path, write); err != nil {
		t.Fatal(err)
	}
	if got := mode(); got != 0o600 {
		t.Fatalf("replaced index file mode %v, want the old file's 0600", got)
	}
}
