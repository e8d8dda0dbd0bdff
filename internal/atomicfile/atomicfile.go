// Package atomicfile replaces files so that a reader, or a process
// restarted after a crash, finds either the old contents or the new ones,
// never a mix.
package atomicfile

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// TmpMarker is part of the name of every temporary file Write creates, so
// the owner of a directory can sweep what a crash mid-write left behind.
const TmpMarker = ".tmp-"

// Write replaces path with what write produces, with permissions perm. It
// writes a temporary file in path's directory, syncs and closes it, renames
// it over path and syncs the directory. The destination is never truncated
// in place: a failure at any step removes the temporary file, returns the
// error and leaves an earlier file at path as it was.
func Write(path string, perm fs.FileMode, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+TmpMarker+"*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = f.Chmod(perm)
	if err == nil {
		err = write(f)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	// Persist the rename itself.
	SyncDir(dir)
	return nil
}

// SyncDir makes the renames and removals already done in dir durable,
// where the platform lets a directory be synced; it is best effort.
func SyncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
