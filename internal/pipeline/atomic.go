// Atomic artifact writes: every file the pipeline or its commands
// produce (manifests, saved models, DOT renderings, NDJSON traces,
// run records, generated traces) goes through the temp-file + fsync +
// rename pattern below, so a crash mid-write can never leave a torn
// file that passes for a real artifact at the destination path. Either
// the old content (or absence) survives intact, or the complete new
// content does.
package pipeline

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// AtomicFile is an artifact file under construction. Writes go to a
// temporary file in the destination directory; Commit fsyncs and
// renames it into place, and Abort discards it. A process crash before
// Commit leaves the destination untouched.
type AtomicFile struct {
	f    *os.File
	path string
	done bool
}

// CreateAtomic starts an atomic write of path. The caller must finish
// with Commit or Abort; until then the destination is untouched.
func CreateAtomic(path string) (*AtomicFile, error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, err
	}
	return &AtomicFile{f: f, path: path}, nil
}

// Write implements io.Writer.
func (a *AtomicFile) Write(p []byte) (int, error) { return a.f.Write(p) }

// Name returns the temporary file's path (useful in error messages).
func (a *AtomicFile) Name() string { return a.f.Name() }

// Commit makes the written content durable and visible at the
// destination path: flush, fsync, close, rename, then a best-effort
// directory sync so the rename itself survives a crash.
func (a *AtomicFile) Commit() error {
	if a.done {
		return fmt.Errorf("pipeline: atomic write of %s already finished", a.path)
	}
	a.done = true
	tmp := a.f.Name()
	if err := a.f.Sync(); err != nil {
		a.f.Close()
		os.Remove(tmp)
		return err
	}
	if err := a.f.Chmod(0o644); err != nil {
		a.f.Close()
		os.Remove(tmp)
		return err
	}
	if err := a.f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, a.path); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(filepath.Dir(a.path))
	return nil
}

// Abort discards the temporary file, leaving the destination as it
// was. Safe to call after Commit (no-op), so it can sit in a defer.
func (a *AtomicFile) Abort() {
	if a.done {
		return
	}
	a.done = true
	tmp := a.f.Name()
	a.f.Close()
	os.Remove(tmp)
}

// syncDir fsyncs a directory so a just-committed rename is durable.
// Best-effort: some platforms and filesystems reject directory fsync,
// and the rename itself is already atomic.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// AtomicWriteFile writes path atomically: write produces the content
// into a temporary file which is fsynced and renamed over path only on
// success. On any error the destination keeps its previous content.
func AtomicWriteFile(path string, write func(io.Writer) error) error {
	af, err := CreateAtomic(path)
	if err != nil {
		return err
	}
	if err := write(af); err != nil {
		af.Abort()
		return err
	}
	return af.Commit()
}
