// Package atomicfile replaces files whole: a reader, a concurrent mapping or
// a crash sees either the old bytes or the new ones, never a truncated or
// half-written file. The commands save indexes and corpora through it.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Write replaces path with the bytes write produces. It writes a temporary
// file in path's directory, syncs and closes it, and only then renames it
// over path, so path is never truncated: another process that has the old
// file mapped keeps reading the old file, and a failed or interrupted save
// leaves it byte-identical. The temporary file is removed on every error.
//
// The new file keeps the permission bits of the file it replaces. A file
// that did not exist gets 0644, so other processes can map it; the umask
// does not apply, because the bits are set with Chmod.
func Write(path string, write func(io.Writer) error) (err error) {
	perm := os.FileMode(0o644)
	if fi, err := os.Stat(path); err == nil {
		perm = fi.Mode().Perm()
	}
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	if err := f.Chmod(perm); err != nil {
		return err
	}
	if err := write(f); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}
