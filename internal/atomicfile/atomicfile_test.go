package atomicfile

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"graphrep/internal/dataset"
	"graphrep/internal/graph"
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

// TestFailedCorpusSaveKeepsExistingFile saves a GRDB corpus, then fails a
// save of a larger corpus partway through, in both the container and the
// text format: the file on disk must stay byte-identical and no temporary
// file may be left behind. A successful save then replaces it.
func TestFailedCorpusSaveKeepsExistingFile(t *testing.T) {
	gen := func(n int) *graph.Database {
		t.Helper()
		db, err := dataset.DUDLike(n, 5)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	small, large := gen(40), gen(80)
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.grdb")
	if err := Write(path, func(w io.Writer) error { return graph.SaveDatabase(w, small) }); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, save := range []func(io.Writer, *graph.Database) error{graph.SaveDatabase, graph.WriteDatabase} {
		err := Write(path, func(w io.Writer) error {
			return save(&failingWriter{w: w, n: len(want) / 2}, large)
		})
		if err == nil {
			t.Fatal("failing save reported success")
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("failed save changed the corpus file (%d bytes, want %d; err %v)", len(got), len(want), err)
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
			t.Fatalf("directory holds %v, want only corpus.grdb", names)
		}
	}
	if err := Write(path, func(w io.Writer) error { return graph.SaveDatabase(w, large) }); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graph.SaveDatabase(&buf, large); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, buf.Bytes()) {
		t.Fatal("successful save did not replace the corpus file")
	}
}
