package core

import (
	"errors"
	"fmt"
	"strconv"

	"duel/internal/ctype"
	"duel/internal/dbgif"
	"duel/internal/duel/ast"
	"duel/internal/duel/value"
)

// pushBackend is the default evaluator: each operator enumerates its
// operands' values with nested yield callbacks. It implements exactly the
// paper's operational semantics (the "simplified code" with yield), compiled
// to Go closures instead of per-node state machines.
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
func (e *Env) evalPush(n *ast.Node, yield EmitFn) error {
	if err := e.step(n); err != nil {
		return err
	}
	switch n.Op {
	case ast.OpConst:
		return yield(e.constValue(n))
	case ast.OpFConst:
		v := value.MakeFloat(e.Ctx.Arch.Double, n.Float)
		v.Sym = e.atom(n.Text)
		return yield(v)
	case ast.OpStr:
		v, err := e.internString(n)
		if err != nil {
			return err
		}
		return yield(v)
	case ast.OpName:
		v, err := e.fetch(n.Name)
		if err != nil {
			return err
		}
		return yield(v)
	case ast.OpGroup:
		return e.evalPush(n.Kids[0], func(v value.Value) error {
			return yield(v.WithSym(e.groupSym(v.Sym)))
		})
	case ast.OpCurly:
		return e.evalPush(n.Kids[0], func(v value.Value) error {
			s, err := e.FormatScalar(v)
			if err != nil {
				return err
			}
			return yield(v.WithSym(e.atom(s)))
		})
	case ast.OpNothing:
		return nil

	// --- C unary operators ---
	case ast.OpNeg, ast.OpPos, ast.OpNot, ast.OpBitNot:
		return e.evalPush(n.Kids[0], func(u value.Value) error {
			ru, err := e.rval(u)
			if err != nil {
				return err
			}
			e.Num.Applies++
			w, err := e.Ctx.Unary(n.Op, ru)
			if err != nil {
				return err
			}
			return yield(w.WithSym(e.preSym(n.Op.Symbol(), u.Sym)))
		})
	case ast.OpIndirect:
		return e.evalPush(n.Kids[0], func(u value.Value) error {
			ru, err := e.rval(u)
			if err != nil {
				return err
			}
			e.Num.Applies++
			w, err := e.Ctx.Deref(ru)
			if err != nil {
				return err
			}
			return yield(w.WithSym(e.preSym("*", u.Sym)))
		})
	case ast.OpAddrOf:
		return e.evalPush(n.Kids[0], func(u value.Value) error {
			e.Num.Applies++
			w, err := e.Ctx.AddrOf(u)
			if err != nil {
				return err
			}
			return yield(w.WithSym(e.preSym("&", u.Sym)))
		})
	case ast.OpCast:
		return e.evalPush(n.Kids[0], func(u value.Value) error {
			ru, err := e.rval(u)
			if err != nil {
				return err
			}
			e.Num.Applies++
			w, err := e.Ctx.Convert(ru, n.Type)
			if err != nil {
				return err
			}
			return yield(w.WithSym(e.preSym("("+n.Type.String()+")", u.Sym)))
		})
	case ast.OpPreInc, ast.OpPreDec, ast.OpPostInc, ast.OpPostDec:
		return e.evalIncDec(n, yield)
	case ast.OpSizeofE:
		var size int
		found := false
		err := e.evalPush(n.Kids[0], func(u value.Value) error {
			var serr error
			if size, serr = sizeofValue(u); serr != nil {
				return serr
			}
			found = true
			return errStop
		})
		if err != nil && !errors.Is(err, errStop) {
			return err
		}
		if !found {
			return fmt.Errorf("duel: sizeof operand produced no values")
		}
		v := value.MakeInt(e.Ctx.Arch.ULong, int64(size))
		v.Sym = e.intAtom(int64(size))
		return yield(v)
	case ast.OpSizeofT:
		v := value.MakeInt(e.Ctx.Arch.ULong, int64(n.Type.Size()))
		v.Sym = e.intAtom(int64(n.Type.Size()))
		return yield(v)

	// --- C binary operators (single-valued apply, generator operands) ---
	//
	// These and the ?-comparisons below run once per left value, so they
	// build one inner callback per evaluation, not one per left value: it
	// reads the current left operand from variables the outer callback
	// sets. Generators are synchronous, so the inner callback never sees
	// another left value.
	case ast.OpPlus, ast.OpMinus, ast.OpMultiply, ast.OpDivide, ast.OpModulo,
		ast.OpShl, ast.OpShr, ast.OpBitAnd, ast.OpBitOr, ast.OpBitXor,
		ast.OpLt, ast.OpGt, ast.OpLe, ast.OpGe, ast.OpEq, ast.OpNe:
		prec := opPrec(n.Op)
		var usym value.Sym
		var ru value.Value
		inner := func(v value.Value) error {
			rv, err := e.rval(v)
			if err != nil {
				return err
			}
			e.Num.Applies++
			w, err := e.Ctx.Binary(n.Op, ru, rv)
			if err != nil {
				return err
			}
			return yield(w.WithSym(e.binSym(usym, n.Op.Symbol(), v.Sym, prec)))
		}
		return e.evalPush(n.Kids[0], func(u value.Value) error {
			r, err := e.rval(u)
			if err != nil {
				return err
			}
			usym, ru = u.Sym, r
			return e.evalPush(n.Kids[1], inner)
		})

	// --- DUEL ?-comparisons: yield the left operand when true ---
	case ast.OpIfLt, ast.OpIfGt, ast.OpIfLe, ast.OpIfGe, ast.OpIfEq, ast.OpIfNe:
		var lu, ru value.Value
		inner := func(v value.Value) error {
			rv, err := e.rval(v)
			if err != nil {
				return err
			}
			e.Num.Applies++
			w, err := e.Ctx.Binary(n.Op, ru, rv)
			if err != nil {
				return err
			}
			if w.IsZero() {
				return nil
			}
			return yield(lu)
		}
		return e.evalPush(n.Kids[0], func(u value.Value) error {
			r, err := e.rval(u)
			if err != nil {
				return err
			}
			lu, ru = u, r
			return e.evalPush(n.Kids[1], inner)
		})

	// --- logical operators with generator semantics (paper §Semantics) ---
	case ast.OpAndAnd:
		return e.evalPush(n.Kids[0], func(u value.Value) error {
			t, err := e.truth(u)
			if err != nil {
				return err
			}
			if !t {
				return nil
			}
			return e.evalPush(n.Kids[1], yield)
		})
	case ast.OpOrOr:
		return e.evalPush(n.Kids[0], func(u value.Value) error {
			t, err := e.truth(u)
			if err != nil {
				return err
			}
			if t {
				return yield(u)
			}
			return e.evalPush(n.Kids[1], yield)
		})

	// --- control expressions ---
	case ast.OpIf, ast.OpCond:
		return e.evalPush(n.Kids[0], func(u value.Value) error {
			t, err := e.truth(u)
			if err != nil {
				return err
			}
			if t {
				return e.evalPush(n.Kids[1], yield)
			}
			if len(n.Kids) > 2 {
				return e.evalPush(n.Kids[2], yield)
			}
			return nil
		})
	case ast.OpWhile:
		return e.evalLoop(n.Kids[0], nil, n.Kids[1], yield)
	case ast.OpFor:
		if n.Kids[0].Op != ast.OpNothing {
			if err := e.discard(n.Kids[0]); err != nil {
				return err
			}
		}
		cond := n.Kids[1]
		if cond.Op == ast.OpNothing {
			cond = nil
		}
		post := n.Kids[2]
		if post.Op == ast.OpNothing {
			post = nil
		}
		return e.evalLoop(cond, post, n.Kids[3], yield)
	case ast.OpSequence:
		if err := e.discard(n.Kids[0]); err != nil {
			return err
		}
		return e.evalPush(n.Kids[1], yield)
	case ast.OpDiscard:
		return e.discard(n.Kids[0])
	case ast.OpImply:
		return e.evalPush(n.Kids[0], func(value.Value) error {
			return e.evalPush(n.Kids[1], yield)
		})
	case ast.OpAlternate:
		if err := e.evalPush(n.Kids[0], yield); err != nil {
			return err
		}
		return e.evalPush(n.Kids[1], yield)

	// --- ranges ---
	case ast.OpTo:
		return e.evalPush(n.Kids[0], func(u value.Value) error {
			lo, err := e.rangeBound(u)
			if err != nil {
				return err
			}
			return e.evalPush(n.Kids[1], func(v value.Value) error {
				hi, err := e.rangeBound(v)
				if err != nil {
					return err
				}
				// Per-iteration step: range loops are the only pure-CPU
				// unbounded work, so the safety limits must fire inside
				// them, not just at node entry.
				for i := lo; i <= hi; i++ {
					if err := e.step(n); err != nil {
						return err
					}
					if err := e.yieldInt(i, yield); err != nil {
						return err
					}
				}
				return nil
			})
		})
	case ast.OpToPrefix:
		return e.evalPush(n.Kids[0], func(v value.Value) error {
			hi, err := e.rangeBound(v)
			if err != nil {
				return err
			}
			for i := int64(0); i < hi; i++ {
				if err := e.step(n); err != nil {
					return err
				}
				if err := e.yieldInt(i, yield); err != nil {
					return err
				}
			}
			return nil
		})
	case ast.OpToOpen:
		return e.evalPush(n.Kids[0], func(u value.Value) error {
			lo, err := e.rangeBound(u)
			if err != nil {
				return err
			}
			for i := lo; ; i++ {
				if i-lo >= int64(e.Opts.MaxOpenRange) {
					return fmt.Errorf("duel: unbounded generator %s.. exceeded %d values", e.text(u.Sym), e.Opts.MaxOpenRange)
				}
				if err := e.step(n); err != nil {
					return err
				}
				if err := e.yieldInt(i, yield); err != nil {
					return err
				}
			}
		})

	// --- memory access ---
	case ast.OpIndex:
		return e.evalPush(n.Kids[0], func(u value.Value) error {
			ru, err := e.rval(u)
			if err != nil {
				return err
			}
			usym := u.Sym
			return e.evalPush(n.Kids[1], func(v value.Value) error {
				rv, err := e.rval(v)
				if err != nil {
					return err
				}
				e.Num.Applies++
				w, err := e.Ctx.Index(ru, rv)
				if err != nil {
					return err
				}
				return yield(w.WithSym(e.indexSym(usym, v.Sym)))
			})
		})
	case ast.OpWithDot, ast.OpWithArrow:
		return e.evalWith(n, yield)
	case ast.OpDfs, ast.OpBfs:
		return e.evalExpand(n, yield)

	// --- sequence manipulators ---
	case ast.OpSelect:
		return e.evalSelect(n, yield)
	case ast.OpUntil:
		return e.evalUntil(n, yield)
	case ast.OpIndexOf:
		j := int64(0)
		return e.evalPush(n.Kids[0], func(u value.Value) error {
			e.SetAlias(n.Name, value.MakeInt(e.Ctx.Arch.Int, j))
			j++
			return yield(u)
		})
	case ast.OpDefine:
		return e.evalPush(n.Kids[0], func(u value.Value) error {
			e.SetAlias(n.Name, u)
			return yield(u)
		})

	// --- reductions ---
	case ast.OpCount:
		cnt := int64(0)
		if err := e.evalPush(n.Kids[0], func(value.Value) error { cnt++; return nil }); err != nil {
			return err
		}
		return e.yieldInt(cnt, yield)
	case ast.OpSum:
		var isum int64
		var fsum float64
		sawFloat := false
		err := e.evalPush(n.Kids[0], func(u value.Value) error {
			ru, err := e.rval(u)
			if err != nil {
				return err
			}
			if err := sumOperand(ru); err != nil {
				return err
			}
			if ctype.IsFloat(ru.Type) {
				sawFloat = true
				fsum += ru.AsFloat()
				return nil
			}
			if !ctype.IsInteger(ctype.Strip(ru.Type)) {
				return fmt.Errorf("duel: +/ cannot sum values of type %s", ru.Type)
			}
			isum += ru.AsInt()
			return nil
		})
		if err != nil {
			return err
		}
		if sawFloat {
			f := fsum + float64(isum)
			v := value.MakeFloat(e.Ctx.Arch.Double, f)
			v.Sym = e.atom(strconv.FormatFloat(f, 'g', -1, 64))
			return yield(v)
		}
		v := value.MakeInt(e.Ctx.Arch.Long, isum)
		v.Sym = e.intAtom(isum)
		return yield(v)
	case ast.OpAll:
		all := true
		err := e.evalPush(n.Kids[0], func(u value.Value) error {
			t, err := e.truth(u)
			if err != nil {
				return err
			}
			if !t {
				all = false
				return errStop
			}
			return nil
		})
		if err != nil && !errors.Is(err, errStop) {
			return err
		}
		return e.yieldBool(all, yield)
	case ast.OpAny:
		any := false
		err := e.evalPush(n.Kids[0], func(u value.Value) error {
			t, err := e.truth(u)
			if err != nil {
				return err
			}
			if t {
				any = true
				return errStop
			}
			return nil
		})
		if err != nil && !errors.Is(err, errStop) {
			return err
		}
		return e.yieldBool(any, yield)

	// --- assignment ---
	case ast.OpAssign, ast.OpAddAssign, ast.OpSubAssign, ast.OpMulAssign,
		ast.OpDivAssign, ast.OpModAssign, ast.OpAndAssign, ast.OpOrAssign,
		ast.OpXorAssign, ast.OpShlAssign, ast.OpShrAssign:
		return e.evalAssign(n, yield)

	// --- declarations, calls ---
	case ast.OpDecl:
		return e.evalDecl(n)
	case ast.OpCall:
		return e.evalCall(n, yield)
	}
	return fmt.Errorf("duel: unimplemented operator %s", n.Op)
}

// --- helpers ---

func (e *Env) constValue(n *ast.Node) value.Value {
	v := value.MakeInt(constType(e.Ctx.Arch, n), int64(n.Int))
	v.Sym = e.atom(n.Text)
	return v
}

// constType resolves the C type of an integer-constant node under arch.
func constType(arch *ctype.Arch, n *ast.Node) ctype.Type {
	switch {
	case n.Unsigned && n.Long:
		return arch.ULong
	case n.Long:
		return arch.Long
	case n.Unsigned:
		return arch.UInt
	case n.Int > uint64(int64(1)<<(uint(arch.Long.Size()*8-1))-1):
		return arch.ULongLong
	case n.Int > 0x7fffffff:
		return arch.Long
	}
	return arch.Int
}

func (e *Env) truth(u value.Value) (bool, error) {
	ru, err := e.rval(u)
	if err != nil {
		return false, err
	}
	return e.Ctx.Truth(ru)
}

func (e *Env) rangeBound(u value.Value) (int64, error) {
	ru, err := e.rval(u)
	if err != nil {
		return 0, err
	}
	if ru.IsPoison() {
		// A range cannot proceed without its bound; the containment
		// stops here and the fault aborts the (sub)expression.
		return 0, ru.Err()
	}
	if !ctype.IsInteger(ctype.Strip(ru.Type)) {
		return 0, fmt.Errorf("duel: range bound %s is not an integer (%s)", e.text(u.Sym), ru.Type)
	}
	return ru.AsInt(), nil
}

// yieldInt emits an int value whose symbolic value is the integer itself —
// the paper: "a..b's symbolic value is the current iteration value".
func (e *Env) yieldInt(i int64, yield EmitFn) error {
	v := value.MakeInt(e.Ctx.Arch.Int, i)
	v.Sym = e.intAtom(i)
	return yield(v)
}

func (e *Env) yieldBool(b bool, yield EmitFn) error {
	if b {
		return e.yieldInt(1, yield)
	}
	return e.yieldInt(0, yield)
}

// discard drives n for its side effects, dropping its values.
func (e *Env) discard(n *ast.Node) error {
	return e.evalPush(n, func(value.Value) error { return nil })
}

// evalLoop implements while (cond == nil means "for(;;)" with no condition
// check) and the loop part of for: repeat { check cond: all values must be
// non-zero; drive body; drive post }.
func (e *Env) evalLoop(cond, post, body *ast.Node, yield EmitFn) error {
	for iter := 0; ; iter++ {
		if iter >= e.Opts.MaxOpenRange {
			return fmt.Errorf("duel: loop exceeded %d iterations", e.Opts.MaxOpenRange)
		}
		if cond != nil {
			sawZero := false
			err := e.evalPush(cond, func(u value.Value) error {
				t, err := e.truth(u)
				if err != nil {
					return err
				}
				if !t {
					sawZero = true
					return errStop
				}
				return nil
			})
			if err != nil && !(errors.Is(err, errStop) && sawZero) {
				return err
			}
			if sawZero {
				return nil
			}
		}
		if err := e.evalPush(body, yield); err != nil {
			return err
		}
		if post != nil {
			if err := e.discard(post); err != nil {
				return err
			}
		}
	}
}

// evalIncDec implements ++e, --e, e++, e--.
func (e *Env) evalIncDec(n *ast.Node, yield EmitFn) error {
	op := ast.OpPlus
	symOp := "++"
	if n.Op == ast.OpPreDec || n.Op == ast.OpPostDec {
		op = ast.OpMinus
		symOp = "--"
	}
	pre := n.Op == ast.OpPreInc || n.Op == ast.OpPreDec
	one := value.MakeInt(e.Ctx.Arch.Int, 1)
	return e.evalPush(n.Kids[0], func(u value.Value) error {
		old, err := e.rval(u)
		if err != nil {
			return err
		}
		e.Num.Applies++
		upd, err := e.Ctx.Binary(op, old, one)
		if err != nil {
			return err
		}
		if err := e.Ctx.Store(u, upd); err != nil {
			if pv, ok := e.containStore(u, err); ok {
				return yield(pv)
			}
			return err
		}
		if pre {
			conv, err := e.Ctx.Convert(upd, u.Type)
			if err != nil {
				return err
			}
			return yield(conv.WithSym(e.preSym(symOp, u.Sym)))
		}
		return yield(old.WithSym(e.postSym(u.Sym, symOp)))
	})
}

// evalAssign implements = and the compound assignments: for each lvalue of
// e1 and each value of e2, store and yield the lvalue (whose display then
// shows the assigned value, e.g. "x[0] = 5").
func (e *Env) evalAssign(n *ast.Node, yield EmitFn) error {
	base := compoundBase(n.Op)
	return e.evalPush(n.Kids[0], func(u value.Value) error {
		if !u.IsLvalue {
			return fmt.Errorf("duel: %s is not an lvalue", e.text(u.Sym))
		}
		return e.evalPush(n.Kids[1], func(v value.Value) error {
			rv, err := e.rval(v)
			if err != nil {
				return err
			}
			if base != ast.OpInvalid {
				old, err := e.rval(u)
				if err != nil {
					return err
				}
				e.Num.Applies++
				if rv, err = e.Ctx.Binary(base, old, rv); err != nil {
					return err
				}
			}
			e.Num.Applies++
			if err := e.Ctx.Store(u, rv); err != nil {
				if pv, ok := e.containStore(u, err); ok {
					return yield(pv)
				}
				return err
			}
			return yield(u)
		})
	})
}

// evalDecl executes a DUEL declaration: allocate target space (once per
// node), register the alias, apply the initializer if present. It produces
// no values.
func (e *Env) evalDecl(n *ast.Node) error {
	lv, err := e.declStorage(n)
	if err != nil {
		return err
	}
	if len(n.Kids) == 1 {
		got := false
		err := e.evalPush(n.Kids[0], func(v value.Value) error {
			got = true
			rv, err := e.rval(v)
			if err != nil {
				return err
			}
			if err := e.Ctx.Store(lv, rv); err != nil {
				return err
			}
			return errStop
		})
		if err != nil && !(errors.Is(err, errStop) && got) {
			return err
		}
	}
	return nil
}

// evalWith implements '.' and '->': for each value u of e1, open u's scope
// (dereferencing through the pointer for ->), evaluate e2 in that scope, and
// yield its values with composed symbolic values.
func (e *Env) evalWith(n *ast.Node, yield EmitFn) error {
	arrow := n.Op == ast.OpWithArrow
	symOp := "."
	if arrow {
		symOp = "->"
	}
	if e.cDirectField(n.Kids[1]) {
		return e.evalPush(n.Kids[0], func(u value.Value) error {
			w, err := e.directField(u, n.Kids[1].Name, arrow)
			if err != nil {
				return err
			}
			return yield(w.WithSym(e.withSym(u.Sym, symOp, w.Sym)))
		})
	}
	// One inner callback serves every scope: usym is the symbolic value
	// of the scope being evaluated in.
	var usym value.Sym
	inner := func(w value.Value) error {
		return yield(w.WithSym(e.withSym(usym, symOp, w.Sym)))
	}
	ms := e.newMemberStep(n.Kids[1])
	return e.evalPush(n.Kids[0], func(u value.Value) error {
		w := e.pushWith()
		if err := e.makeWithEntry(w, u, arrow); err != nil {
			e.popWith()
			return err
		}
		usym = u.Sym
		werr := e.evalScoped(&ms, w, inner)
		e.popWith()
		return werr
	})
}

// memberStep is the per-evaluation state of the right side of a '.', '->'
// or '-->' node: when it is a plain member name, the member resolved for
// the struct type the node opened last. It lives in the node's evaluation
// closure, never on the AST, which several goroutines may evaluate at once.
type memberStep struct {
	kid    *ast.Node
	member bool // kid is a member name; "_" and C scoping keep the general path
	st     *ctype.Struct
	f      *ctype.Field // kid's member of st; nil when st has none
}

func (e *Env) newMemberStep(kid *ast.Node) memberStep {
	return memberStep{kid: kid, member: kid.Op == ast.OpName && kid.Name != "_" && !e.Opts.CScoping}
}

// field returns the member of the struct lvalue w opened, resolving it
// once per struct type. ok is false when fetch must resolve the name: a
// frame scope, a bad pointer or error value, a struct rvalue, no scope, or
// no such member.
func (m *memberStep) field(w *withEntry) (*ctype.Field, bool) {
	if !m.member || !w.hasScope || !w.scope.IsLvalue || w.scope.FrameScope > 0 {
		return nil, false
	}
	st, ok := ctype.Strip(w.scope.Type).(*ctype.Struct)
	if !ok || st.Incomplete {
		return nil, false
	}
	if st != m.st {
		m.st = st
		m.f, _ = st.Field(m.kid.Name)
	}
	return m.f, m.f != nil
}

// evalScoped evaluates the right side of a with node in the scope of the
// entry w just pushed. A member name builds the field lvalue directly,
// with the step, the lookup and the atom fetch would count; the entry
// stays pushed while the value flows downstream.
func (e *Env) evalScoped(m *memberStep, w *withEntry, yield EmitFn) error {
	f, ok := m.field(w)
	if !ok {
		return e.evalPush(m.kid, yield)
	}
	if err := e.step(m.kid); err != nil {
		return err
	}
	e.Num.Lookups++
	v := value.MemberLvalue(w.scope.Addr, f)
	v.Sym = e.atom(m.kid.Name)
	return yield(v)
}

// evalUntil implements e@n: produce e's values up to (not including) the
// first for which the stop condition holds. When n is a constant, the
// condition is "value == n"; otherwise n is evaluated in the scope of each
// value (so "_" and field names refer to it) and any non-zero value stops.
func (e *Env) evalUntil(n *ast.Node, yield EmitFn) error {
	stopKid := n.Kids[1]
	stopped := false
	err := e.evalPush(n.Kids[0], func(u value.Value) error {
		stop, err := e.untilStops(u, stopKid, func(k *ast.Node) (bool, error) {
			hit := false
			cerr := e.evalPush(k, func(c value.Value) error {
				t, err := e.truth(c)
				if err != nil {
					return err
				}
				if t {
					hit = true
					return errStop
				}
				return nil
			})
			if cerr != nil && !(errors.Is(cerr, errStop) && hit) {
				return false, cerr
			}
			return hit, nil
		})
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
}

// evalSelect implements e1[[e2]]: the index sequence e2 is collected first,
// then e1 is enumerated once up to the largest requested index with the
// needed values cached — the paper notes the real implementation "avoids the
// re-evaluation of e2 when possible"; caching achieves the same effect.
func (e *Env) evalSelect(n *ast.Node, yield EmitFn) error {
	var idxs []int64
	err := e.evalPush(n.Kids[1], func(v value.Value) error {
		rv, err := e.rval(v)
		if err != nil {
			return err
		}
		if !ctype.IsInteger(ctype.Strip(rv.Type)) {
			return fmt.Errorf("duel: [[...]] index %s is not an integer (%s)", e.text(v.Sym), rv.Type)
		}
		i := rv.AsInt()
		if i < 0 {
			return fmt.Errorf("duel: [[...]] index %d is negative", i)
		}
		idxs = append(idxs, i)
		return nil
	})
	if err != nil {
		return err
	}
	if len(idxs) == 0 {
		return nil
	}
	need := make(map[int64]bool, len(idxs))
	var maxIdx int64
	for _, i := range idxs {
		need[i] = true
		if i > maxIdx {
			maxIdx = i
		}
	}
	cache := make(map[int64]value.Value, len(need))
	j := int64(0)
	err = e.evalPush(n.Kids[0], func(u value.Value) error {
		if need[j] {
			cache[j] = u
		}
		j++
		if j > maxIdx {
			return errStop
		}
		return nil
	})
	if err != nil && !errors.Is(err, errStop) {
		return err
	}
	for _, i := range idxs {
		u, ok := cache[i]
		if !ok {
			continue // sequence shorter than the index
		}
		if err := yield(u); err != nil {
			return err
		}
	}
	return nil
}

// evalExpand implements e1-->e2 (depth-first, the paper's dfs with children
// stacked in reverse) and e1-->>e2 (breadth-first, the paper's "other
// orderings"). Null or invalid pointers terminate their branch; with
// Opts.CycleDetect, already-visited nodes are skipped (extension — the
// paper's implementation "does not handle cycles").
//
// A node awaiting its visit is its pointer rvalue, whose symbolic value is
// its path: one derivation step from the path of the node it was reached
// from, so a node costs the same at any depth. The work list, the child
// buffer and the child callback serve every root of this evaluation.
func (e *Env) evalExpand(n *ast.Node, yield EmitFn) error {
	bfs := n.Op == ast.OpBfs
	var (
		visited map[uint64]bool
		work    []value.Value
		kids    []value.Value // children of cur, in e2's order
		cur     value.Value   // the node being opened
	)
	addKid := func(w value.Value) error {
		rw, err := e.rval(w)
		if err != nil {
			return err
		}
		if !ctype.IsPointer(rw.Type) {
			return fmt.Errorf("duel: --> step %s is not a pointer (%s)", e.text(w.Sym), rw.Type)
		}
		if !e.validPointer(rw) {
			return nil
		}
		if visited != nil {
			a := rw.AsUint()
			if visited[a] {
				return nil
			}
			visited[a] = true
		}
		kids = append(kids, rw.WithSym(e.pathStep(cur.Sym, w.Sym)))
		return nil
	}
	ms := e.newMemberStep(n.Kids[1])
	return e.evalPush(n.Kids[0], func(u value.Value) error {
		ru, err := e.rval(u)
		if err != nil {
			return err
		}
		if !ctype.IsPointer(ru.Type) {
			return fmt.Errorf("duel: %s is not a pointer (%s); cannot expand with -->", e.text(u.Sym), ru.Type)
		}
		if !e.validPointer(ru) {
			return nil // NULL or invalid root: empty expansion
		}
		if e.Opts.CycleDetect {
			visited = map[uint64]bool{ru.AsUint(): true}
		}
		work = append(work[:0], ru.WithSym(e.pathRoot(u.Sym)))
		visits := 0
		for len(work) > 0 {
			var it value.Value
			if bfs {
				it = work[0]
				work = work[1:]
			} else {
				it = work[len(work)-1]
				work = work[:len(work)-1]
			}
			visits++
			if visits > e.Opts.MaxExpand {
				return fmt.Errorf("duel: --> expansion of %s exceeded %d nodes (cycle? enable cycle detection)", e.text(u.Sym), e.Opts.MaxExpand)
			}
			cur = it.WithSym(e.dfsSym(it.Sym))
			// Open *X and generate the children.
			sv, err := e.Ctx.Deref(cur)
			if err != nil {
				return err
			}
			w := e.pushWith()
			w.orig = cur
			if _, ok := ctype.Strip(sv.Type).(*ctype.Struct); ok {
				w.scope = sv
				w.hasScope = true
			}
			kids = kids[:0]
			kerr := e.evalScoped(&ms, w, addKid)
			e.popWith()
			if kerr != nil {
				return kerr
			}
			if bfs {
				work = append(work, kids...)
			} else {
				for i := len(kids) - 1; i >= 0; i-- {
					work = append(work, kids[i])
				}
			}
			if err := yield(cur); err != nil {
				return err
			}
		}
		return nil
	})
}

// evalCall implements function calls. If any argument is a generator the
// function is called for all combinations of argument values, per the paper.
// frame(i) is the built-in frame-scope generator unless the target defines
// its own "frame"; frames() reports the number of active frames.
func (e *Env) evalCall(n *ast.Node, yield EmitFn) error {
	callee := n.Kids[0]
	if callee.Op == ast.OpName {
		if _, ok := e.Ctx.D.GetTargetVariable(callee.Name); !ok {
			switch callee.Name {
			case "frame":
				return e.evalFrameBuiltin(n, yield)
			case "frames":
				return e.yieldInt(int64(e.Ctx.D.NumFrames()), yield)
			}
		}
	}
	return e.evalPush(callee, func(fv value.Value) error {
		rf, err := e.rval(fv)
		if err != nil {
			return err
		}
		ft, ok := ctype.Strip(ctype.Strip(rf.Type)).(*ctype.Pointer)
		var sig *ctype.Func
		if ok {
			sig, _ = ctype.Strip(ft.Elem).(*ctype.Func)
		}
		if sig == nil {
			return fmt.Errorf("duel: %s is not a function (%s)", e.text(fv.Sym), fv.Type)
		}
		args := make([]value.Value, len(n.Kids)-1)
		var rec func(i int) error
		rec = func(i int) error {
			if i == len(args) {
				return e.callOnce(fv, sig, rf.AsUint(), args, yield)
			}
			return e.evalPush(n.Kids[i+1], func(a value.Value) error {
				ra, err := e.rval(a)
				if err != nil {
					return err
				}
				args[i] = ra.WithSym(a.Sym)
				return rec(i + 1)
			})
		}
		return rec(0)
	})
}

func (e *Env) callOnce(fv value.Value, sig *ctype.Func, addr uint64, args []value.Value, yield EmitFn) error {
	in := make([]dbgif.Value, len(args))
	for i, a := range args {
		conv := a
		if i < len(sig.Params) {
			var err error
			conv, err = e.Ctx.Convert(a, sig.Params[i])
			if err != nil {
				return err
			}
		}
		in[i] = dbgif.Value{Type: conv.Type, Bytes: conv.Bytes()}
	}
	if len(args) < len(sig.Params) {
		return fmt.Errorf("duel: too few arguments in call to %s (%d < %d)", e.text(fv.Sym), len(args), len(sig.Params))
	}
	e.Num.Applies++
	out, err := e.Ctx.D.CallTargetFunc(addr, in)
	if err != nil {
		if pv, ok := e.containCall(e.callResultSym(fv, args), err); ok {
			return yield(pv)
		}
		return fmt.Errorf("duel: call to %s: %w", callSymName(e.text(fv.Sym)), err)
	}
	if out.Type == nil || ctype.IsVoid(out.Type) {
		return nil
	}
	res := value.FromBytes(out.Type, out.Bytes)
	res.Sym = e.callResultSym(fv, args)
	return yield(res)
}

func (e *Env) evalFrameBuiltin(n *ast.Node, yield EmitFn) error {
	if len(n.Kids) != 2 {
		return fmt.Errorf("duel: frame() takes exactly one argument")
	}
	return e.evalPush(n.Kids[1], func(a value.Value) error {
		ra, err := e.rval(a)
		if err != nil {
			return err
		}
		lvl := int(ra.AsInt())
		if lvl < 0 || lvl >= e.Ctx.D.NumFrames() {
			return fmt.Errorf("duel: no frame %d (%d active)", lvl, e.Ctx.D.NumFrames())
		}
		v := value.Value{FrameScope: int32(lvl + 1)}
		v.Sym = e.atom("frame(" + strconv.Itoa(lvl) + ")")
		return yield(v)
	})
}

// Drive evaluates n without resetting per-command state; the micro-C
// interpreter uses it so nested target-function calls do not clobber an
// enclosing evaluation's name-resolution stack.
func (e *Env) Drive(n *ast.Node, yield EmitFn) error { return e.evalPush(n, yield) }
