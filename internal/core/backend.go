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

// opPrec maps binary operators to their symbolic-display precedence.
func opPrec(op ast.Op) int {
	switch op {
	case ast.OpMultiply, ast.OpDivide, ast.OpModulo:
		return value.PrecMultip
	case ast.OpPlus, ast.OpMinus:
		return value.PrecAdditive
	case ast.OpShl, ast.OpShr:
		return value.PrecShift
	case ast.OpLt, ast.OpGt, ast.OpLe, ast.OpGe,
		ast.OpIfLt, ast.OpIfGt, ast.OpIfLe, ast.OpIfGe:
		return value.PrecRelation
	case ast.OpEq, ast.OpNe, ast.OpIfEq, ast.OpIfNe:
		return value.PrecEquality
	case ast.OpBitAnd:
		return value.PrecBitAnd
	case ast.OpBitXor:
		return value.PrecBitXor
	case ast.OpBitOr:
		return value.PrecBitOr
	case ast.OpAndAnd:
		return value.PrecAndAnd
	case ast.OpOrOr:
		return value.PrecOrOr
	case ast.OpAssign, ast.OpAddAssign, ast.OpSubAssign, ast.OpMulAssign,
		ast.OpDivAssign, ast.OpModAssign, ast.OpAndAssign, ast.OpOrAssign,
		ast.OpXorAssign, ast.OpShlAssign, ast.OpShrAssign:
		return value.PrecAssign
	case ast.OpTo, ast.OpUntil:
		return value.PrecRange
	}
	return value.PrecAtom
}

// compoundBase maps a compound-assignment operator to its arithmetic base.
func compoundBase(op ast.Op) ast.Op {
	switch op {
	case ast.OpAddAssign:
		return ast.OpPlus
	case ast.OpSubAssign:
		return ast.OpMinus
	case ast.OpMulAssign:
		return ast.OpMultiply
	case ast.OpDivAssign:
		return ast.OpDivide
	case ast.OpModAssign:
		return ast.OpModulo
	case ast.OpAndAssign:
		return ast.OpBitAnd
	case ast.OpOrAssign:
		return ast.OpBitOr
	case ast.OpXorAssign:
		return ast.OpBitXor
	case ast.OpShlAssign:
		return ast.OpShl
	case ast.OpShrAssign:
		return ast.OpShr
	}
	return ast.OpInvalid
}

// callSymName names a callee in error messages even when symbolic values
// are disabled.
func callSymName(s string) string {
	if s == "" {
		return "<target function>"
	}
	return s
}
