package runner

import (
	"os"
	"path/filepath"
)

// WriteFileAtomic replaces path with data so that a crash or a power loss
// at any instant leaves either the old file or the complete new one, never
// a torn mix. The bytes go to a temp file in path's directory, named
// ".tmp-*" so a leftover never matches a tool's glob (trace-*, say); the
// temp file is fsynced, closed and renamed over path, and the directory is
// fsynced so the rename itself is durable. The file keeps an existing
// file's permission bits, and a new file is created 0644 — without the
// chmod the rename would install os.CreateTemp's private 0600, making a
// file one user or CI step wrote unreadable to the next. On failure the
// temp file is removed.
func WriteFileAtomic(path string, data []byte) error {
	mode := os.FileMode(0o644)
	if fi, err := os.Stat(path); err == nil {
		mode = fi.Mode().Perm()
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	err = tmp.Chmod(mode)
	if err == nil {
		_, err = tmp.Write(data)
	}
	if err == nil {
		// Sync before the rename: renaming an unsynced file can atomically
		// install zero-length or partial content after a power loss.
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(path)
}

// syncDir fsyncs the directory holding path, making a just-renamed file's
// directory entry durable. The rename itself is atomic; without the
// directory sync a power loss immediately after it could resurrect the old
// name on some filesystems.
func syncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
