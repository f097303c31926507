package core

import (
	"fmt"
	"sort"

	"duel/internal/duel/ast"
	"duel/internal/duel/value"
)

// EmitFn receives each value an expression produces. Returning a non-nil
// error stops the evaluation (the error is propagated).
type EmitFn func(value.Value) error

// Backend is one implementation of the generator evaluation semantics.
type Backend interface {
	// Name identifies the backend ("push" or "machine").
	Name() string
	// Eval drives expression n to completion, calling emit for every
	// value it produces — the paper's top-level "duel" driver.
	Eval(e *Env, n *ast.Node, emit EmitFn) error
}

// backends holds every evaluator, keyed by name.
var backends = map[string]Backend{
	pushBackend{}.Name():    pushBackend{},
	machineBackend{}.Name(): machineBackend{},
}

// GetBackend looks up a backend by name.
func GetBackend(name string) (Backend, error) {
	b, ok := backends[name]
	if !ok {
		return nil, fmt.Errorf("duel: unknown evaluator backend %q (have %v)", name, BackendNames())
	}
	return b, nil
}

// BackendNames lists the registered backends, sorted.
func BackendNames() []string {
	out := make([]string, 0, len(backends))
	for n := range backends {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
