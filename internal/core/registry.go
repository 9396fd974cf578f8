package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Solver registry: solvers are resolved by name so that CLIs,
// services, and experiments select algorithms from configuration
// instead of hard-coded switches. The four built-in solvers register
// themselves at init; external packages may add their own via
// Register.

// Factory builds a fresh solver instance with default configuration.
type Factory func() Solver

var registry = struct {
	sync.RWMutex
	factories map[string]Factory
}{factories: make(map[string]Factory)}

// Register adds a solver factory under a name. It panics on an empty
// name, a nil factory, or a duplicate registration — these are
// programming errors, caught at init time.
func Register(name string, factory Factory) {
	if name == "" {
		panic("core: Register with empty solver name")
	}
	if factory == nil {
		panic("core: Register with nil factory for " + name)
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.factories[name]; dup {
		panic("core: duplicate solver registration for " + name)
	}
	registry.factories[name] = factory
}

// Get returns a fresh solver instance by name. Unknown names yield an
// error listing the registered solvers.
func Get(name string) (Solver, error) {
	registry.RLock()
	factory, ok := registry.factories[name]
	registry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: unknown solver %q (available: %s)",
			name, strings.Join(Names(), ", "))
	}
	return factory(), nil
}

// MustGet is Get but panics on unknown names; for lineups of names
// known at compile time.
func MustGet(name string) Solver {
	s, err := Get(name)
	if err != nil {
		panic(err)
	}
	return s
}

// Names returns the registered solver names, sorted.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	names := make([]string, 0, len(registry.factories))
	for n := range registry.factories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	Register("collective", func() Solver { return CollectiveSolver{} })
	Register("greedy", func() Solver { return GreedySolver{} })
	Register("independent", func() Solver { return IndependentSolver{} })
	Register("exhaustive", func() Solver { return ExhaustiveSolver{} })
}
