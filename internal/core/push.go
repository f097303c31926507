package core

import (
	"errors"
	"fmt"

	"duel/internal/duel/ast"
	"duel/internal/duel/value"
)

// pushBackend is the default evaluator: each operator enumerates its
// operands' values with nested yield callbacks. It implements exactly the
// paper's operational semantics (the "simplified code" with yield), compiled
// to Go closures instead of per-node state machines. What each node
// computes from its operand values is in sem.go; this file only drives the
// operands.
type pushBackend struct{}

// Name implements Backend.
func (pushBackend) Name() string { return "push" }

// Eval implements Backend.
func (pushBackend) Eval(e *Env, n *ast.Node, emit EmitFn) error {
	e.beginEval()
	defer e.endEval()
	err := e.evalPush(n, emit)
	if errors.Is(err, errStop) {
		return fmt.Errorf("duel: internal error: stop sentinel escaped evaluation")
	}
	return err
}

// evalPush produces every value of n through yield.
//
// A node that runs an operand once per value of another (cross-two, with,
// -->) builds one inner callback per evaluation, not one per outer value:
// it reads the current outer value from variables the outer callback
// sets. Generators are synchronous, so the inner callback never sees
// another outer value.
func (e *Env) evalPush(n *ast.Node, yield EmitFn) error {
	if err := e.step(n); err != nil {
		return err
	}
	switch n.Op {
	case ast.OpConst, ast.OpFConst, ast.OpStr, ast.OpName, ast.OpSizeofT:
		return e.leaf(n, yield)
	case ast.OpNothing:
		return nil
	case ast.OpGroup:
		return e.evalPush(n.Kids[0], yield)

	case ast.OpNeg, ast.OpPos, ast.OpNot, ast.OpBitNot, ast.OpIndirect, ast.OpAddrOf,
		ast.OpCast, ast.OpPreInc, ast.OpPreDec, ast.OpPostInc, ast.OpPostDec,
		ast.OpCurly, ast.OpDefine:
		return e.pushMap(n, n.Kids[0], yield)

	case ast.OpPlus, ast.OpMinus, ast.OpMultiply, ast.OpDivide, ast.OpModulo,
		ast.OpShl, ast.OpShr, ast.OpBitAnd, ast.OpBitOr, ast.OpBitXor,
		ast.OpLt, ast.OpGt, ast.OpLe, ast.OpGe, ast.OpEq, ast.OpNe, ast.OpIndex,
		ast.OpIfLt, ast.OpIfGt, ast.OpIfLe, ast.OpIfGe, ast.OpIfEq, ast.OpIfNe,
		ast.OpAssign, ast.OpAddAssign, ast.OpSubAssign, ast.OpMulAssign,
		ast.OpDivAssign, ast.OpModAssign, ast.OpAndAssign, ast.OpOrAssign,
		ast.OpXorAssign, ast.OpShlAssign, ast.OpShrAssign:
		var l operand
		inner := func(v value.Value) error { return e.cross2(n, &l, &v, yield) }
		return e.evalPush(n.Kids[0], func(u value.Value) error {
			if err := e.left2(n, &l, u); err != nil {
				return err
			}
			return e.evalPush(n.Kids[1], inner)
		})

	case ast.OpAndAnd, ast.OpOrOr, ast.OpIf, ast.OpCond, ast.OpImply:
		return e.evalPush(n.Kids[0], func(u value.Value) error {
			k, err := e.branch(n, u)
			switch {
			case err != nil:
				return err
			case k < 0:
				return yield(u)
			case k == 0:
				return nil
			}
			return e.evalPush(n.Kids[k], yield)
		})

	case ast.OpCount, ast.OpSum, ast.OpAll, ast.OpAny, ast.OpSizeofE, ast.OpDecl:
		r, err := e.foldStart(n)
		if err == nil && len(n.Kids) > 0 {
			err = e.pushFold(&r, n.Kids[0])
		}
		if err != nil {
			return err
		}
		return e.foldOut(&r, yield)

	case ast.OpTo, ast.OpToPrefix, ast.OpToOpen:
		return e.pushRange(n, yield)
	case ast.OpWhile:
		return e.pushLoop(n.Kids[0], nil, n.Kids[1], yield)
	case ast.OpFor:
		if n.Kids[0].Op != ast.OpNothing {
			if err := e.discard(n.Kids[0]); err != nil {
				return err
			}
		}
		return e.pushLoop(n.Kids[1], n.Kids[2], n.Kids[3], yield)
	case ast.OpSequence:
		if err := e.discard(n.Kids[0]); err != nil {
			return err
		}
		return e.evalPush(n.Kids[1], yield)
	case ast.OpDiscard:
		return e.discard(n.Kids[0])
	case ast.OpAlternate:
		if err := e.evalPush(n.Kids[0], yield); err != nil {
			return err
		}
		return e.evalPush(n.Kids[1], yield)
	case ast.OpIndexOf:
		j := int64(0)
		return e.evalPush(n.Kids[0], func(u value.Value) error {
			e.indexOf(n, j)
			j++
			return yield(u)
		})

	case ast.OpSelect:
		return e.pushSelect(n, yield)
	case ast.OpUntil:
		stopped := false
		err := e.evalPush(n.Kids[0], func(u value.Value) error {
			stop, err := e.untilStops(u, n.Kids[1], e.pushAny)
			if err != nil {
				return err
			}
			if stop {
				stopped = true
				return errStop
			}
			return yield(u)
		})
		if err != nil && !(errors.Is(err, errStop) && stopped) {
			return err
		}
		return nil
	case ast.OpWithDot, ast.OpWithArrow:
		if e.cDirectField(n.Kids[1]) {
			return e.pushMap(n, n.Kids[0], yield)
		}
		return e.pushWithNode(n, yield)
	case ast.OpDfs, ast.OpBfs:
		return e.pushExpand(n, yield)
	case ast.OpCall:
		switch b, err := e.builtin(n); {
		case err != nil:
			return err
		case b == "frame":
			return e.pushMap(n, n.Kids[1], yield)
		case b == "frames":
			return e.leaf(n, yield)
		}
		return e.pushCall(n, yield)
	}
	return fmt.Errorf("duel: unimplemented operator %s", n.Op)
}

// pushMap yields apply1 of each value of kid, n's operand.
func (e *Env) pushMap(n, kid *ast.Node, yield EmitFn) error {
	return e.evalPush(kid, func(u value.Value) error { return e.apply1(n, u, yield) })
}

// pushFold folds the values of k into r, abandoning k once r is decided.
func (e *Env) pushFold(r *fold, k *ast.Node) error {
	err := e.evalPush(k, func(u value.Value) error {
		stop, err := e.foldIn(r, u)
		if err == nil && stop {
			return errStop
		}
		return err
	})
	if errors.Is(err, errStop) {
		return nil
	}
	return err
}

// pushAny reports whether some value of k is non-zero, stopping at the
// first.
func (e *Env) pushAny(k *ast.Node) (bool, error) {
	r := fold{op: ast.OpAny}
	err := e.pushFold(&r, k)
	return r.done, err
}

// discard drives n for its side effects, dropping its values.
func (e *Env) discard(n *ast.Node) error {
	return e.evalPush(n, func(value.Value) error { return nil })
}

// pushRange drives lo..hi, ..hi and lo..: for each value of the first
// bound (and each value of hi, for lo..hi), yield the integers of the
// range.
func (e *Env) pushRange(n *ast.Node, yield EmitFn) error {
	return e.evalPush(n.Kids[0], func(u value.Value) error {
		b, err := e.rangeBound(u)
		if err != nil {
			return err
		}
		switch n.Op {
		case ast.OpToPrefix:
			return e.pushCount(n, 0, b, u.Sym, yield)
		case ast.OpToOpen:
			return e.pushCount(n, b, 0, u.Sym, yield)
		}
		lsym := u.Sym
		return e.evalPush(n.Kids[1], func(v value.Value) error {
			hi, err := e.rangeBound(v)
			if err != nil {
				return err
			}
			return e.pushCount(n, b, hi, lsym, yield)
		})
	})
}

// pushCount yields the integers of a range from lo until rangeDone.
func (e *Env) pushCount(n *ast.Node, lo, hi int64, lsym value.Sym, yield EmitFn) error {
	for i := lo; ; i++ {
		if done, err := e.rangeDone(n, lo, i, hi, lsym); done || err != nil {
			return err
		}
		// Per-iteration step: range loops are the only pure-CPU unbounded
		// work, so the safety limits must fire inside them, not just at
		// node entry.
		if err := e.step(n); err != nil {
			return err
		}
		if err := e.yieldInt(i, yield); err != nil {
			return err
		}
	}
}

// pushLoop drives while and the loop part of for: repeat { all of cond's
// values must be non-zero (an omitted cond always holds); drive body;
// drive post }.
func (e *Env) pushLoop(cond, post, body *ast.Node, yield EmitFn) error {
	for iter := int64(0); ; iter++ {
		if err := e.loopCheck(iter); err != nil {
			return err
		}
		if cond.Op != ast.OpNothing {
			r := fold{op: ast.OpAll}
			if err := e.pushFold(&r, cond); err != nil {
				return err
			}
			if r.done {
				return nil
			}
		}
		if err := e.evalPush(body, yield); err != nil {
			return err
		}
		if post != nil && post.Op != ast.OpNothing {
			if err := e.discard(post); err != nil {
				return err
			}
		}
	}
}

// pushSelect drives e1[[e2]]: all of e2, then e1 up to the largest index.
func (e *Env) pushSelect(n *ast.Node, yield EmitFn) error {
	var s selection
	err := e.evalPush(n.Kids[1], func(v value.Value) error { return e.selectIndex(&s, v) })
	if err != nil || len(s.idxs) == 0 {
		return err
	}
	err = e.evalPush(n.Kids[0], func(u value.Value) error {
		if !s.keep(u) {
			return errStop
		}
		return nil
	})
	if err != nil && !errors.Is(err, errStop) {
		return err
	}
	for u, ok := s.next(); ok; u, ok = s.next() {
		if err := yield(u); err != nil {
			return err
		}
	}
	return nil
}

// pushWithNode drives '.' and '->': for each value u of e1, open u's scope
// and yield the values of e2 in it.
func (e *Env) pushWithNode(n *ast.Node, yield EmitFn) error {
	// One inner callback serves every scope: usym is the symbolic value
	// of the scope being evaluated in.
	var usym value.Sym
	inner := func(w value.Value) error { return yield(w.WithSym(e.scopedSym(n, usym, w.Sym))) }
	ms := e.newMemberStep(n.Kids[1])
	return e.evalPush(n.Kids[0], func(u value.Value) error {
		w, err := e.openWith(n, u)
		if err != nil {
			return err
		}
		usym = u.Sym
		werr := e.evalScoped(&ms, w, inner)
		e.popWith()
		return werr
	})
}

// evalScoped evaluates the right side of a with or --> node in the scope
// of the entry w just pushed. A member name builds the field lvalue
// directly, with the step, the lookup and the atom fetch would count; the
// entry stays pushed while the value flows downstream.
func (e *Env) evalScoped(m *memberStep, w *withEntry, yield EmitFn) error {
	f, ok := m.field(w)
	if !ok {
		return e.evalPush(m.kid, yield)
	}
	if err := e.step(m.kid); err != nil {
		return err
	}
	return e.member(m, w, f, yield)
}

// pushExpand drives e1-->e2 and e1-->>e2: for each root from e1, visit the
// walk's nodes, running e2 in each node's scope for its children.
func (e *Env) pushExpand(n *ast.Node, yield EmitFn) error {
	x := &expansion{bfs: n.Op == ast.OpBfs}
	ms := e.newMemberStep(n.Kids[1])
	addKid := func(w value.Value) error { return e.expandKid(x, &w) }
	return e.evalPush(n.Kids[0], func(u value.Value) error {
		if err := e.expandRoot(x, u); err != nil {
			return err
		}
		for {
			ok, err := e.expandNext(x)
			if !ok || err != nil {
				return err
			}
			kerr := e.evalScoped(&ms, &e.withStack[len(e.withStack)-1], addKid)
			e.popWith()
			if kerr != nil {
				return kerr
			}
			if err := yield(x.visit()); err != nil {
				return err
			}
		}
	})
}

// pushCall drives a target call: for each callee value, every combination
// of argument values, the leftmost argument outermost.
func (e *Env) pushCall(n *ast.Node, yield EmitFn) error {
	return e.evalPush(n.Kids[0], func(fv value.Value) error {
		c, err := e.callee(fv)
		if err != nil {
			return err
		}
		args := make([]value.Value, len(n.Kids)-1)
		var rec func(i int) error
		rec = func(i int) error {
			if i == len(args) {
				return e.callOnce(&c, args, yield)
			}
			return e.evalPush(n.Kids[i+1], func(a value.Value) error {
				ra, err := e.callArg(a)
				if err != nil {
					return err
				}
				args[i] = ra
				return rec(i + 1)
			})
		}
		return rec(0)
	})
}

// Drive evaluates n without resetting per-command state; the micro-C
// interpreter uses it so nested target-function calls do not clobber an
// enclosing evaluation's name-resolution stack.
func (e *Env) Drive(n *ast.Node, yield EmitFn) error { return e.evalPush(n, yield) }
