package runner

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Advisory store locking. An on-disk Cache or Journal is a single-writer
// store: its save/compaction protocol (temp file + rename) is atomic against
// readers, but two live processes appending to one journal — or alternately
// rewriting one cache file — would silently interleave and lose each other's
// writes. Opening a store therefore takes an exclusive advisory lock on a
// sibling "<path>.lock" file and holds it until the store is closed or the
// process exits; a second open fails loudly with ErrStoreLocked instead.
//
// The lock is flock(2)-based, so the kernel releases it when the holder dies
// — SIGKILL included — and a crashed process never wedges the store. The
// .lock file itself is deliberately left on disk after release: unlinking it
// would race a concurrent acquirer into holding a lock on a dead inode,
// letting two processes both believe they own the store.

// ErrStoreLocked reports that an on-disk cache or journal is already open —
// by another process, or by another handle in this one.
var ErrStoreLocked = errors.New("store is already locked")

// lockedPaths tracks locks held within this process. flock on Linux already
// conflicts between two file descriptions in one process, but the registry
// makes the in-process double-open error deterministic on every platform
// (including ones where fileLockExcl is a no-op) and lets the error message
// name the real culprit.
var lockedPaths = struct {
	sync.Mutex
	m map[string]struct{}
}{m: make(map[string]struct{})}

// fileLock is one held store lock; release with release.
type fileLock struct {
	key string // registry key (absolute .lock path)
	f   *os.File
}

// acquireLock takes the exclusive advisory lock guarding storePath,
// creating the sibling .lock file as needed. It never blocks: a held lock
// is an immediate ErrStoreLocked.
func acquireLock(storePath string) (*fileLock, error) {
	abs, err := filepath.Abs(storePath)
	if err != nil {
		abs = storePath
	}
	key := abs + ".lock"

	lockedPaths.Lock()
	if _, held := lockedPaths.m[key]; held {
		lockedPaths.Unlock()
		return nil, fmt.Errorf("runner: %s: %w by another handle in this process", storePath, ErrStoreLocked)
	}
	lockedPaths.m[key] = struct{}{}
	lockedPaths.Unlock()

	unregister := func() {
		lockedPaths.Lock()
		delete(lockedPaths.m, key)
		lockedPaths.Unlock()
	}
	f, err := os.OpenFile(key, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		unregister()
		return nil, fmt.Errorf("runner: creating lock file: %w", err)
	}
	if err := fileLockExcl(f); err != nil {
		f.Close()
		unregister()
		return nil, fmt.Errorf("runner: %s: %w by another process (the lock releases when its holder exits)", storePath, ErrStoreLocked)
	}
	return &fileLock{key: key, f: f}, nil
}

// release drops the lock. Closing the descriptor releases the flock; the
// .lock file stays on disk (see the package comment above). Nil-safe and
// idempotent.
func (l *fileLock) release() {
	if l == nil || l.f == nil {
		return
	}
	l.f.Close()
	l.f = nil
	lockedPaths.Lock()
	delete(lockedPaths.m, l.key)
	lockedPaths.Unlock()
}
