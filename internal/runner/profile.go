package runner

import (
	"fmt"
	"os"
	"runtime/pprof"
	"sync"
)

// CPUProfile is an in-progress CPU profile started by StartCPUProfile. Stop
// it through the same single-exit cleanup path that saves the result cache
// (internal/cli's Env.Close): a profile stopped by a deferred call that the
// process skips (os.Exit on a signal, a -strict audit failure) is left
// truncated and unusable by `go tool pprof`.
type CPUProfile struct {
	f    *os.File
	once sync.Once
	err  error
}

// StartCPUProfile begins writing a CPU profile to path. The commands'
// -cpuprofile flag reaches it through internal/cli, which starts the
// profile in Env.Open and stops it first thing in Env.Close.
func StartCPUProfile(path string) (*CPUProfile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("runner: creating CPU profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("runner: starting CPU profile: %w", err)
	}
	return &CPUProfile{f: f}, nil
}

// Stop flushes the profile and closes its file, reporting any write error
// instead of swallowing it — a silently truncated profile looks like a
// mysteriously empty workload. Stop is idempotent (later calls return the
// first outcome) and a nil receiver is a no-op, so every exit path can call
// it unconditionally.
func (p *CPUProfile) Stop() error {
	if p == nil {
		return nil
	}
	p.once.Do(func() {
		pprof.StopCPUProfile()
		if err := p.f.Sync(); err != nil {
			p.err = fmt.Errorf("runner: flushing CPU profile: %w", err)
			p.f.Close()
			return
		}
		if err := p.f.Close(); err != nil {
			p.err = fmt.Errorf("runner: closing CPU profile: %w", err)
		}
	})
	return p.err
}
