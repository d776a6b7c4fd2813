package cc

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// The algorithm registry maps names to constructors. Algorithm packages
// register themselves from init (see internal/cc/bbr etc.), so the maps are
// built exactly once, at program start, and every layer — the scenario
// spec, the experiment harness, the CLIs — resolves names through the same
// table. A scenario names its algorithms, so the name is what a canonical
// scenario key records.
var registry = struct {
	mu     sync.RWMutex
	byName map[string]Constructor
	names  []string // sorted; rebuilt on registration
}{
	byName: map[string]Constructor{},
}

// Register adds a constructor under name. Algorithm packages call it from
// init; a duplicate, empty, or delimiter-carrying name panics — that is a
// wiring bug, not a runtime condition. Names become part of canonical
// scenario keys, so they must be free of the key delimiters '|', ',', ':'
// and whitespace.
func Register(name string, ctor Constructor) {
	if name == "" || strings.ContainsAny(name, "|,: \t\n") {
		panic(fmt.Sprintf("cc: invalid algorithm name %q", name))
	}
	if ctor == nil {
		panic(fmt.Sprintf("cc: nil constructor for %q", name))
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.byName[name]; dup {
		panic(fmt.Sprintf("cc: algorithm %q registered twice", name))
	}
	registry.byName[name] = ctor
	registry.names = append(registry.names, name)
	sort.Strings(registry.names)
}

// Algorithms returns the registered algorithm names in sorted order.
func Algorithms() []string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	return append([]string(nil), registry.names...)
}

// AlgorithmByName resolves a registered constructor.
func AlgorithmByName(name string) (Constructor, error) {
	registry.mu.RLock()
	ctor, ok := registry.byName[name]
	registry.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("cc: unknown algorithm %q (have %s)",
			name, strings.Join(Algorithms(), ", "))
	}
	return ctor, nil
}
