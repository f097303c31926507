package core

import (
	"fmt"
	"strconv"
	"strings"

	"duel/internal/ctype"
	"duel/internal/dbgif"
	"duel/internal/duel/ast"
	"duel/internal/duel/value"
)

// machineBackend is the paper-faithful evaluator: every AST node carries an
// explicit state and a saved value, eval(n) returns ONE value per call (or
// NOVALUE, here the ok=false result), and the top-level driver calls eval
// repeatedly until the sequence ends — exactly the scheme of the paper's
// §Semantics, which "simulates coroutines".
//
// Node state lives in a side table keyed by node (the original stored it in
// the node itself; a side table keeps ASTs reusable across sessions). When
// an operator abandons a child mid-sequence (while's condition, @, [[...]],
// reduction early exits), the child's subtree state is reset — including
// popping any with-scopes it left on the name-resolution stack.
type machineBackend struct{}

// Name implements Backend.
func (machineBackend) Name() string { return "machine" }

// Eval implements Backend: the paper's top-level driver.
func (machineBackend) Eval(e *Env, n *ast.Node, emit EmitFn) error {
	e.beginEval()
	defer e.endEval()
	m := &machine{env: e, states: make(map[*ast.Node]*mstate)}
	for {
		v, ok, err := m.eval(n)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := emit(v); err != nil {
			return err
		}
	}
}

// mstate is the paper's per-node evaluation state (state, value) plus the
// operator-specific registers the pseudo-code keeps in locals across yields.
type mstate struct {
	state int
	val   value.Value // the saved left-operand value (paper's n->value)
	rv    value.Value // its rvalue, computed once per left value

	lo, i, hi int64 // iteration registers (to, .., counters)

	// with: the watermark to restore on cleanup, and whether a scope is
	// currently pushed for a suspended production.
	withMark int
	pushed   bool

	// dfs/bfs work list (pointer rvalues whose symbolic values are their
	// paths) and the children of the node being opened.
	work, kids []value.Value

	// select: collected indices, cache, and emit position.
	idxs  []int64
	cache map[int64]value.Value
	pos   int

	// call: current callee and argument values.
	fv   value.Value
	sig  *ctype.Func
	addr uint64
	args []value.Value
}

type machine struct {
	env    *Env
	states map[*ast.Node]*mstate
	depth  int
}

func (m *machine) st(n *ast.Node) *mstate {
	s, ok := m.states[n]
	if !ok {
		s = &mstate{withMark: -1}
		m.states[n] = s
	}
	return s
}

// resetTree clears the saved state of n's whole subtree, popping any
// with-scopes a suspended with left pushed. Operators call it when they
// abandon a child before it has produced NOVALUE.
func (m *machine) resetTree(n *ast.Node) {
	n.Walk(func(k *ast.Node) bool {
		if s, ok := m.states[k]; ok {
			if s.pushed && s.withMark >= 0 && s.withMark <= len(m.env.withStack) {
				m.env.withStack = m.env.withStack[:s.withMark]
			}
			delete(m.states, k)
		}
		return true
	})
}

// drain evaluates n to completion, discarding values.
func (m *machine) drain(n *ast.Node) error {
	for {
		_, ok, err := m.eval(n)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}

// eval produces the next value of n, or ok=false for NOVALUE. With
// Options.Trace set it logs each call like the paper's walkthrough.
func (m *machine) eval(n *ast.Node) (value.Value, bool, error) {
	if w := m.env.Opts.Trace; w != nil {
		m.depth++
		v, ok, err := m.eval1(n)
		m.depth--
		indent := strings.Repeat("  ", m.depth)
		switch {
		case err != nil:
			fmt.Fprintf(w, "%seval(%s) -> error: %v\n", indent, n.Op, err)
		case !ok:
			fmt.Fprintf(w, "%seval(%s) -> NOVALUE\n", indent, n.Op)
		default:
			s, ferr := m.env.FormatScalar(v)
			if ferr != nil {
				s = "<" + v.Type.String() + ">"
			}
			fmt.Fprintf(w, "%seval(%s) -> %s\n", indent, n.Op, s)
		}
		return v, ok, err
	}
	return m.eval1(n)
}

func (m *machine) eval1(n *ast.Node) (value.Value, bool, error) {
	e := m.env
	if err := e.step(n); err != nil {
		return value.Value{}, false, err
	}
	st := m.st(n)
	switch n.Op {
	case ast.OpConst:
		if st.state == 0 {
			st.state = 1
			return e.constValue(n), true, nil
		}
		st.state = 0
		return value.Value{}, false, nil
	case ast.OpFConst:
		if st.state == 0 {
			st.state = 1
			v := value.MakeFloat(e.Ctx.Arch.Double, n.Float)
			v.Sym = e.atom(n.Text)
			return v, true, nil
		}
		st.state = 0
		return value.Value{}, false, nil
	case ast.OpStr:
		if st.state == 0 {
			st.state = 1
			v, err := e.internString(n)
			return v, err == nil, err
		}
		st.state = 0
		return value.Value{}, false, nil
	case ast.OpName:
		if st.state == 0 {
			st.state = 1
			v, err := e.fetch(n.Name)
			return v, err == nil, err
		}
		st.state = 0
		return value.Value{}, false, nil
	case ast.OpSizeofT:
		if st.state == 0 {
			st.state = 1
			v := value.MakeInt(e.Ctx.Arch.ULong, int64(n.Type.Size()))
			v.Sym = e.intAtom(int64(n.Type.Size()))
			return v, true, nil
		}
		st.state = 0
		return value.Value{}, false, nil
	case ast.OpNothing:
		return value.Value{}, false, nil

	case ast.OpGroup:
		v, ok, err := m.eval(n.Kids[0])
		if !ok || err != nil {
			return value.Value{}, false, err
		}
		return v.WithSym(e.groupSym(v.Sym)), true, nil
	case ast.OpCurly:
		v, ok, err := m.eval(n.Kids[0])
		if !ok || err != nil {
			return value.Value{}, false, err
		}
		s, err := e.FormatScalar(v)
		if err != nil {
			return value.Value{}, false, err
		}
		return v.WithSym(e.atom(s)), true, nil

	case ast.OpNeg, ast.OpPos, ast.OpNot, ast.OpBitNot:
		// while (u = eval(kids[0])) yield apply(op, u)
		u, ok, err := m.eval(n.Kids[0])
		if !ok || err != nil {
			return value.Value{}, false, err
		}
		ru, err := e.rval(u)
		if err != nil {
			return value.Value{}, false, err
		}
		e.Num.Applies++
		w, err := e.Ctx.Unary(n.Op, ru)
		if err != nil {
			return value.Value{}, false, err
		}
		return w.WithSym(e.preSym(n.Op.Symbol(), u.Sym)), true, nil
	case ast.OpIndirect:
		u, ok, err := m.eval(n.Kids[0])
		if !ok || err != nil {
			return value.Value{}, false, err
		}
		ru, err := e.rval(u)
		if err != nil {
			return value.Value{}, false, err
		}
		e.Num.Applies++
		w, err := e.Ctx.Deref(ru)
		if err != nil {
			return value.Value{}, false, err
		}
		return w.WithSym(e.preSym("*", u.Sym)), true, nil
	case ast.OpAddrOf:
		u, ok, err := m.eval(n.Kids[0])
		if !ok || err != nil {
			return value.Value{}, false, err
		}
		e.Num.Applies++
		w, err := e.Ctx.AddrOf(u)
		if err != nil {
			return value.Value{}, false, err
		}
		return w.WithSym(e.preSym("&", u.Sym)), true, nil
	case ast.OpCast:
		u, ok, err := m.eval(n.Kids[0])
		if !ok || err != nil {
			return value.Value{}, false, err
		}
		ru, err := e.rval(u)
		if err != nil {
			return value.Value{}, false, err
		}
		e.Num.Applies++
		w, err := e.Ctx.Convert(ru, n.Type)
		if err != nil {
			return value.Value{}, false, err
		}
		return w.WithSym(e.preSym("("+n.Type.String()+")", u.Sym)), true, nil
	case ast.OpPreInc, ast.OpPreDec, ast.OpPostInc, ast.OpPostDec:
		return m.evalIncDec(n)
	case ast.OpSizeofE:
		if st.state == 1 {
			st.state = 0
			return value.Value{}, false, nil
		}
		u, ok, err := m.eval(n.Kids[0])
		if err != nil {
			return value.Value{}, false, err
		}
		if !ok {
			return value.Value{}, false, fmt.Errorf("duel: sizeof operand produced no values")
		}
		m.resetTree(n.Kids[0])
		st.state = 1
		sz, serr := sizeofValue(u)
		if serr != nil {
			return value.Value{}, false, serr
		}
		size := int64(sz)
		v := value.MakeInt(e.Ctx.Arch.ULong, size)
		v.Sym = e.intAtom(size)
		return v, true, nil

	case ast.OpPlus, ast.OpMinus, ast.OpMultiply, ast.OpDivide, ast.OpModulo,
		ast.OpShl, ast.OpShr, ast.OpBitAnd, ast.OpBitOr, ast.OpBitXor,
		ast.OpLt, ast.OpGt, ast.OpLe, ast.OpGe, ast.OpEq, ast.OpNe:
		// The paper's bin0/bin1 scheme, verbatim.
		prec := opPrec(n.Op)
		for {
			if st.state == 1 {
				v, ok, err := m.eval(n.Kids[1])
				if err != nil {
					return value.Value{}, false, err
				}
				if ok {
					rv, err := e.rval(v)
					if err != nil {
						return value.Value{}, false, err
					}
					e.Num.Applies++
					w, err := e.Ctx.Binary(n.Op, st.rv, rv)
					if err != nil {
						return value.Value{}, false, err
					}
					return w.WithSym(e.binSym(st.val.Sym, n.Op.Symbol(), v.Sym, prec)), true, nil
				}
				st.state = 0
			}
			u, ok, err := m.eval(n.Kids[0])
			if err != nil {
				return value.Value{}, false, err
			}
			if !ok {
				return value.Value{}, false, nil
			}
			ru, err := e.rval(u)
			if err != nil {
				return value.Value{}, false, err
			}
			st.val, st.rv = u, ru
			st.state = 1
		}

	case ast.OpIfLt, ast.OpIfGt, ast.OpIfLe, ast.OpIfGe, ast.OpIfEq, ast.OpIfNe:
		// while(u) while(v) if (apply(u,v)) yield u
		for {
			if st.state == 1 {
				for {
					v, ok, err := m.eval(n.Kids[1])
					if err != nil {
						return value.Value{}, false, err
					}
					if !ok {
						st.state = 0
						break
					}
					rv, err := e.rval(v)
					if err != nil {
						return value.Value{}, false, err
					}
					e.Num.Applies++
					w, err := e.Ctx.Binary(n.Op, st.rv, rv)
					if err != nil {
						return value.Value{}, false, err
					}
					if !w.IsZero() {
						return st.val, true, nil
					}
				}
			}
			u, ok, err := m.eval(n.Kids[0])
			if err != nil {
				return value.Value{}, false, err
			}
			if !ok {
				return value.Value{}, false, nil
			}
			ru, err := e.rval(u)
			if err != nil {
				return value.Value{}, false, err
			}
			st.val, st.rv = u, ru
			st.state = 1
		}

	case ast.OpAndAnd:
		for {
			if st.state == 1 {
				v, ok, err := m.eval(n.Kids[1])
				if err != nil {
					return value.Value{}, false, err
				}
				if ok {
					return v, true, nil
				}
				st.state = 0
			}
			u, ok, err := m.eval(n.Kids[0])
			if err != nil {
				return value.Value{}, false, err
			}
			if !ok {
				return value.Value{}, false, nil
			}
			t, err := e.truth(u)
			if err != nil {
				return value.Value{}, false, err
			}
			if t {
				st.state = 1
			}
		}
	case ast.OpOrOr:
		for {
			if st.state == 1 {
				v, ok, err := m.eval(n.Kids[1])
				if err != nil {
					return value.Value{}, false, err
				}
				if ok {
					return v, true, nil
				}
				st.state = 0
			}
			u, ok, err := m.eval(n.Kids[0])
			if err != nil {
				return value.Value{}, false, err
			}
			if !ok {
				return value.Value{}, false, nil
			}
			t, err := e.truth(u)
			if err != nil {
				return value.Value{}, false, err
			}
			if t {
				return u, true, nil
			}
			st.state = 1
		}

	case ast.OpIf, ast.OpCond:
		for {
			if st.state != 0 {
				branch := n.Kids[st.state]
				v, ok, err := m.eval(branch)
				if err != nil {
					return value.Value{}, false, err
				}
				if ok {
					return v, true, nil
				}
				st.state = 0
			}
			u, ok, err := m.eval(n.Kids[0])
			if err != nil {
				return value.Value{}, false, err
			}
			if !ok {
				return value.Value{}, false, nil
			}
			t, err := e.truth(u)
			if err != nil {
				return value.Value{}, false, err
			}
			if t {
				st.state = 1
			} else if len(n.Kids) > 2 {
				st.state = 2
			}
		}

	case ast.OpWhile:
		return m.evalLoop(n, st, nil, nil, n.Kids[0], n.Kids[1])
	case ast.OpFor:
		init, cond, post := n.Kids[0], n.Kids[1], n.Kids[2]
		if init.Op == ast.OpNothing {
			init = nil
		}
		if cond.Op == ast.OpNothing {
			cond = nil
		}
		if post.Op == ast.OpNothing {
			post = nil
		}
		return m.evalLoop(n, st, init, post, cond, n.Kids[3])

	case ast.OpSequence:
		if st.state == 0 {
			if err := m.drain(n.Kids[0]); err != nil {
				return value.Value{}, false, err
			}
			st.state = 1
		}
		v, ok, err := m.eval(n.Kids[1])
		if !ok {
			st.state = 0
		}
		return v, ok, err
	case ast.OpDiscard:
		if err := m.drain(n.Kids[0]); err != nil {
			return value.Value{}, false, err
		}
		return value.Value{}, false, nil
	case ast.OpImply:
		for {
			if st.state == 1 {
				v, ok, err := m.eval(n.Kids[1])
				if err != nil {
					return value.Value{}, false, err
				}
				if ok {
					return v, true, nil
				}
				st.state = 0
			}
			_, ok, err := m.eval(n.Kids[0])
			if err != nil {
				return value.Value{}, false, err
			}
			if !ok {
				return value.Value{}, false, nil
			}
			st.state = 1
		}
	case ast.OpAlternate:
		// while (u = eval(kids[0])) yield u; while (v = ...) yield v
		if st.state == 0 {
			u, ok, err := m.eval(n.Kids[0])
			if err != nil {
				return value.Value{}, false, err
			}
			if ok {
				return u, true, nil
			}
			st.state = 1
		}
		v, ok, err := m.eval(n.Kids[1])
		if !ok {
			st.state = 0
		}
		return v, ok, err

	case ast.OpTo:
		// while(u) while(v) for (i = u; i <= v; i++) yield i
		for {
			switch st.state {
			case 2:
				if st.i <= st.hi {
					v := st.i
					st.i++
					return m.intVal(v), true, nil
				}
				st.state = 1
			case 1:
				v, ok, err := m.eval(n.Kids[1])
				if err != nil {
					return value.Value{}, false, err
				}
				if !ok {
					st.state = 0
					continue
				}
				hi, err := e.rangeBound(v)
				if err != nil {
					return value.Value{}, false, err
				}
				st.hi = hi
				st.i = st.lo
				st.state = 2
			default:
				u, ok, err := m.eval(n.Kids[0])
				if err != nil {
					return value.Value{}, false, err
				}
				if !ok {
					return value.Value{}, false, nil
				}
				lo, err := e.rangeBound(u)
				if err != nil {
					return value.Value{}, false, err
				}
				st.lo = lo
				st.state = 1
			}
		}
	case ast.OpToPrefix:
		for {
			if st.state == 1 {
				if st.i < st.hi {
					v := st.i
					st.i++
					return m.intVal(v), true, nil
				}
				st.state = 0
			}
			u, ok, err := m.eval(n.Kids[0])
			if err != nil {
				return value.Value{}, false, err
			}
			if !ok {
				return value.Value{}, false, nil
			}
			hi, err := e.rangeBound(u)
			if err != nil {
				return value.Value{}, false, err
			}
			st.i, st.hi = 0, hi
			st.state = 1
		}
	case ast.OpToOpen:
		for {
			if st.state == 1 {
				if st.i-st.hi >= int64(e.Opts.MaxOpenRange) {
					return value.Value{}, false, fmt.Errorf("duel: unbounded generator %s.. exceeded %d values", e.text(st.val.Sym), e.Opts.MaxOpenRange)
				}
				v := st.i
				st.i++
				return m.intVal(v), true, nil
			}
			u, ok, err := m.eval(n.Kids[0])
			if err != nil {
				return value.Value{}, false, err
			}
			if !ok {
				return value.Value{}, false, nil
			}
			lo, err := e.rangeBound(u)
			if err != nil {
				return value.Value{}, false, err
			}
			st.i, st.hi = lo, lo
			st.val = u
			st.state = 1
		}

	case ast.OpIndex:
		for {
			if st.state == 1 {
				v, ok, err := m.eval(n.Kids[1])
				if err != nil {
					return value.Value{}, false, err
				}
				if ok {
					rv, err := e.rval(v)
					if err != nil {
						return value.Value{}, false, err
					}
					e.Num.Applies++
					w, err := e.Ctx.Index(st.rv, rv)
					if err != nil {
						return value.Value{}, false, err
					}
					return w.WithSym(e.indexSym(st.val.Sym, v.Sym)), true, nil
				}
				st.state = 0
			}
			u, ok, err := m.eval(n.Kids[0])
			if err != nil {
				return value.Value{}, false, err
			}
			if !ok {
				return value.Value{}, false, nil
			}
			ru, err := e.rval(u)
			if err != nil {
				return value.Value{}, false, err
			}
			st.val, st.rv = u, ru
			st.state = 1
		}

	case ast.OpWithDot, ast.OpWithArrow:
		return m.evalWith(n, st)
	case ast.OpDfs, ast.OpBfs:
		return m.evalExpand(n, st)
	case ast.OpSelect:
		return m.evalSelect(n, st)
	case ast.OpUntil:
		return m.evalUntil(n, st)

	case ast.OpIndexOf:
		u, ok, err := m.eval(n.Kids[0])
		if !ok || err != nil {
			st.i = 0
			return value.Value{}, false, err
		}
		e.SetAlias(n.Name, value.MakeInt(e.Ctx.Arch.Int, st.i))
		st.i++
		return u, true, nil
	case ast.OpDefine:
		u, ok, err := m.eval(n.Kids[0])
		if !ok || err != nil {
			return value.Value{}, false, err
		}
		e.SetAlias(n.Name, u)
		return u, true, nil

	case ast.OpCount, ast.OpSum, ast.OpAll, ast.OpAny:
		return m.evalReduction(n, st)

	case ast.OpAssign, ast.OpAddAssign, ast.OpSubAssign, ast.OpMulAssign,
		ast.OpDivAssign, ast.OpModAssign, ast.OpAndAssign, ast.OpOrAssign,
		ast.OpXorAssign, ast.OpShlAssign, ast.OpShrAssign:
		return m.evalAssign(n, st)

	case ast.OpDecl:
		if st.state == 1 {
			st.state = 0
			return value.Value{}, false, nil
		}
		st.state = 1
		if err := m.execDecl(n); err != nil {
			return value.Value{}, false, err
		}
		st.state = 0
		return value.Value{}, false, nil
	case ast.OpCall:
		return m.evalCall(n, st)
	}
	return value.Value{}, false, fmt.Errorf("duel: machine backend: unimplemented operator %s", n.Op)
}

func (m *machine) intVal(i int64) value.Value {
	v := value.MakeInt(m.env.Ctx.Arch.Int, i)
	v.Sym = m.env.intAtom(i)
	return v
}

// evalLoop implements while and for. state 0 = check condition, 1 = yield
// body values. st.i records that init ran; st.hi counts iterations across
// the calls that resume the body, so the MaxOpenRange bound holds however
// many values each iteration yields.
func (m *machine) evalLoop(n *ast.Node, st *mstate, init, post, cond, body *ast.Node) (value.Value, bool, error) {
	e := m.env
	if st.state == 0 && init != nil && st.i == 0 {
		if err := m.drain(init); err != nil {
			return value.Value{}, false, err
		}
		st.i = 1 // init ran
	}
	for {
		if st.state == 1 {
			v, ok, err := m.eval(body)
			if err != nil {
				return value.Value{}, false, err
			}
			if ok {
				return v, true, nil
			}
			if post != nil {
				if err := m.drain(post); err != nil {
					return value.Value{}, false, err
				}
			}
			st.state = 0
		}
		if st.hi >= int64(e.Opts.MaxOpenRange) {
			return value.Value{}, false, fmt.Errorf("duel: loop exceeded %d iterations", e.Opts.MaxOpenRange)
		}
		st.hi++
		if cond != nil {
			for {
				u, ok, err := m.eval(cond)
				if err != nil {
					return value.Value{}, false, err
				}
				if !ok {
					break
				}
				t, err := e.truth(u)
				if err != nil {
					return value.Value{}, false, err
				}
				if !t {
					m.resetTree(cond)
					st.state = 0
					st.i, st.hi = 0, 0
					return value.Value{}, false, nil
				}
			}
		}
		st.state = 1
	}
}

func (m *machine) evalIncDec(n *ast.Node) (value.Value, bool, error) {
	e := m.env
	op := ast.OpPlus
	symOp := "++"
	if n.Op == ast.OpPreDec || n.Op == ast.OpPostDec {
		op = ast.OpMinus
		symOp = "--"
	}
	pre := n.Op == ast.OpPreInc || n.Op == ast.OpPreDec
	u, ok, err := m.eval(n.Kids[0])
	if !ok || err != nil {
		return value.Value{}, false, err
	}
	old, err := e.rval(u)
	if err != nil {
		return value.Value{}, false, err
	}
	e.Num.Applies++
	upd, err := e.Ctx.Binary(op, old, value.MakeInt(e.Ctx.Arch.Int, 1))
	if err != nil {
		return value.Value{}, false, err
	}
	if err := e.Ctx.Store(u, upd); err != nil {
		if pv, ok := e.containStore(u, err); ok {
			return pv, true, nil
		}
		return value.Value{}, false, err
	}
	if pre {
		conv, err := e.Ctx.Convert(upd, u.Type)
		if err != nil {
			return value.Value{}, false, err
		}
		return conv.WithSym(e.preSym(symOp, u.Sym)), true, nil
	}
	return old.WithSym(e.postSym(u.Sym, symOp)), true, nil
}

func (m *machine) evalAssign(n *ast.Node, st *mstate) (value.Value, bool, error) {
	e := m.env
	base := compoundBase(n.Op)
	for {
		if st.state == 1 {
			v, ok, err := m.eval(n.Kids[1])
			if err != nil {
				return value.Value{}, false, err
			}
			if ok {
				rv, err := e.rval(v)
				if err != nil {
					return value.Value{}, false, err
				}
				if base != ast.OpInvalid {
					old, err := e.rval(st.val)
					if err != nil {
						return value.Value{}, false, err
					}
					e.Num.Applies++
					if rv, err = e.Ctx.Binary(base, old, rv); err != nil {
						return value.Value{}, false, err
					}
				}
				e.Num.Applies++
				if err := e.Ctx.Store(st.val, rv); err != nil {
					if pv, ok := e.containStore(st.val, err); ok {
						return pv, true, nil
					}
					return value.Value{}, false, err
				}
				return st.val, true, nil
			}
			st.state = 0
		}
		u, ok, err := m.eval(n.Kids[0])
		if err != nil {
			return value.Value{}, false, err
		}
		if !ok {
			return value.Value{}, false, nil
		}
		if !u.IsLvalue {
			return value.Value{}, false, fmt.Errorf("duel: %s is not an lvalue", e.text(u.Sym))
		}
		st.val = u
		st.state = 1
	}
}

func (m *machine) execDecl(n *ast.Node) error {
	e := m.env
	lv, err := e.declStorage(n)
	if err != nil {
		return err
	}
	if len(n.Kids) == 1 {
		v, ok, err := m.eval(n.Kids[0])
		if err != nil {
			return err
		}
		if ok {
			rv, err := e.rval(v)
			if err != nil {
				return err
			}
			if err := e.Ctx.Store(lv, rv); err != nil {
				return err
			}
			m.resetTree(n.Kids[0])
		}
	}
	return nil
}

// evalWith is the paper's WITH state machine: the scope stays pushed while
// values of e2 are being produced (including across suspensions).
func (m *machine) evalWith(n *ast.Node, st *mstate) (value.Value, bool, error) {
	e := m.env
	arrow := n.Op == ast.OpWithArrow
	symOp := "."
	if arrow {
		symOp = "->"
	}
	if m.env.cDirectField(n.Kids[1]) {
		u, ok, err := m.eval(n.Kids[0])
		if !ok || err != nil {
			return value.Value{}, false, err
		}
		w, err := e.directField(u, n.Kids[1].Name, arrow)
		if err != nil {
			return value.Value{}, false, err
		}
		return w.WithSym(e.withSym(u.Sym, symOp, w.Sym)), true, nil
	}
	for {
		if st.state == 1 {
			w, ok, err := m.eval(n.Kids[1])
			if err != nil {
				return value.Value{}, false, err
			}
			if ok {
				return w.WithSym(e.withSym(st.val.Sym, symOp, w.Sym)), true, nil
			}
			e.popWith()
			st.pushed = false
			st.state = 0
		}
		u, ok, err := m.eval(n.Kids[0])
		if err != nil {
			return value.Value{}, false, err
		}
		if !ok {
			return value.Value{}, false, nil
		}
		mark := len(e.withStack)
		if err := e.makeWithEntry(e.pushWith(), u, arrow); err != nil {
			e.popWith()
			return value.Value{}, false, err
		}
		st.val = u
		st.withMark = mark
		st.pushed = true
		st.state = 1
	}
}

func (m *machine) evalExpand(n *ast.Node, st *mstate) (value.Value, bool, error) {
	e := m.env
	bfs := n.Op == ast.OpBfs
	for {
		if st.state == 1 {
			if len(st.work) == 0 {
				st.state = 0
			} else {
				var it value.Value
				if bfs {
					it = st.work[0]
					st.work = st.work[1:]
				} else {
					it = st.work[len(st.work)-1]
					st.work = st.work[:len(st.work)-1]
				}
				st.i++
				if st.i > int64(e.Opts.MaxExpand) {
					return value.Value{}, false, fmt.Errorf("duel: --> expansion of %s exceeded %d nodes (cycle? enable cycle detection)", e.text(st.val.Sym), e.Opts.MaxExpand)
				}
				cur := it.WithSym(e.dfsSym(it.Sym))
				kids, err := m.expandChildren(n, st, cur)
				if err != nil {
					return value.Value{}, false, err
				}
				if bfs {
					st.work = append(st.work, kids...)
				} else {
					for i := len(kids) - 1; i >= 0; i-- {
						st.work = append(st.work, kids[i])
					}
				}
				return cur, true, nil
			}
		}
		u, ok, err := m.eval(n.Kids[0])
		if err != nil {
			return value.Value{}, false, err
		}
		if !ok {
			return value.Value{}, false, nil
		}
		ru, err := e.rval(u)
		if err != nil {
			return value.Value{}, false, err
		}
		if !ctype.IsPointer(ru.Type) {
			return value.Value{}, false, fmt.Errorf("duel: %s is not a pointer (%s); cannot expand with -->", e.text(u.Sym), ru.Type)
		}
		st.val = u
		st.i = 0
		st.work = st.work[:0]
		if e.validPointer(ru) {
			st.work = append(st.work, ru.WithSym(e.pathRoot(u.Sym)))
		}
		st.cache = nil
		if e.Opts.CycleDetect {
			st.cache = map[int64]value.Value{} // presence marks visited
			st.cache[int64(ru.AsUint())] = value.Value{}
		}
		st.state = 1
	}
}

// expandChildren drains e2 under the node's scope, collecting valid pointer
// children (into st.kids, reused from node to node).
func (m *machine) expandChildren(n *ast.Node, st *mstate, cur value.Value) ([]value.Value, error) {
	e := m.env
	sv, err := e.Ctx.Deref(cur)
	if err != nil {
		return nil, err
	}
	w := e.pushWith()
	defer e.popWith()
	w.orig = cur
	if _, ok := ctype.Strip(sv.Type).(*ctype.Struct); ok {
		w.scope = sv
		w.hasScope = true
	}
	st.kids = st.kids[:0]
	for {
		w, ok, err := m.eval(n.Kids[1])
		if err != nil {
			return nil, err
		}
		if !ok {
			return st.kids, nil
		}
		rw, err := e.rval(w)
		if err != nil {
			return nil, err
		}
		if !ctype.IsPointer(rw.Type) {
			return nil, fmt.Errorf("duel: --> step %s is not a pointer (%s)", e.text(w.Sym), rw.Type)
		}
		if !e.validPointer(rw) {
			continue
		}
		if st.cache != nil {
			a := int64(rw.AsUint())
			if _, seen := st.cache[a]; seen {
				continue
			}
			st.cache[a] = value.Value{}
		}
		st.kids = append(st.kids, rw.WithSym(e.pathStep(cur.Sym, w.Sym)))
	}
}

func (m *machine) evalSelect(n *ast.Node, st *mstate) (value.Value, bool, error) {
	e := m.env
	if st.state == 0 {
		st.idxs = st.idxs[:0]
		for {
			v, ok, err := m.eval(n.Kids[1])
			if err != nil {
				return value.Value{}, false, err
			}
			if !ok {
				break
			}
			rv, err := e.rval(v)
			if err != nil {
				return value.Value{}, false, err
			}
			if !ctype.IsInteger(ctype.Strip(rv.Type)) {
				return value.Value{}, false, fmt.Errorf("duel: [[...]] index %s is not an integer (%s)", e.text(v.Sym), rv.Type)
			}
			i := rv.AsInt()
			if i < 0 {
				return value.Value{}, false, fmt.Errorf("duel: [[...]] index %d is negative", i)
			}
			st.idxs = append(st.idxs, i)
		}
		if len(st.idxs) == 0 {
			return value.Value{}, false, nil
		}
		var maxIdx int64
		need := make(map[int64]bool, len(st.idxs))
		for _, i := range st.idxs {
			need[i] = true
			if i > maxIdx {
				maxIdx = i
			}
		}
		st.cache = make(map[int64]value.Value, len(need))
		j := int64(0)
		for j <= maxIdx {
			u, ok, err := m.eval(n.Kids[0])
			if err != nil {
				return value.Value{}, false, err
			}
			if !ok {
				break
			}
			if need[j] {
				st.cache[j] = u
			}
			j++
		}
		if j > maxIdx {
			m.resetTree(n.Kids[0])
		}
		st.pos = 0
		st.state = 1
	}
	for st.pos < len(st.idxs) {
		u, ok := st.cache[st.idxs[st.pos]]
		st.pos++
		if ok {
			return u, true, nil
		}
	}
	st.state = 0
	st.cache = nil
	return value.Value{}, false, nil
}

func (m *machine) evalUntil(n *ast.Node, st *mstate) (value.Value, bool, error) {
	e := m.env
	stopKid := n.Kids[1]
	for {
		u, ok, err := m.eval(n.Kids[0])
		if err != nil {
			return value.Value{}, false, err
		}
		if !ok {
			return value.Value{}, false, nil
		}
		stop, err := e.untilStops(u, stopKid, func(k *ast.Node) (bool, error) {
			for {
				c, ok, err := m.eval(k)
				if err != nil {
					return false, err
				}
				if !ok {
					return false, nil
				}
				t, err := e.truth(c)
				if err != nil {
					return false, err
				}
				if t {
					// Stop at the first non-zero value, like push:
					// abandon the condition and reset its subtree.
					m.resetTree(k)
					return true, nil
				}
			}
		})
		if err != nil {
			return value.Value{}, false, err
		}
		if stop {
			m.resetTree(n.Kids[0])
			return value.Value{}, false, nil
		}
		return u, true, nil
	}
}

func (m *machine) evalReduction(n *ast.Node, st *mstate) (value.Value, bool, error) {
	e := m.env
	if st.state == 1 {
		st.state = 0
		return value.Value{}, false, nil
	}
	var (
		cnt      int64
		isum     int64
		fsum     float64
		sawFloat bool
		all      = true
		any      = false
	)
	for {
		u, ok, err := m.eval(n.Kids[0])
		if err != nil {
			return value.Value{}, false, err
		}
		if !ok {
			break
		}
		switch n.Op {
		case ast.OpCount:
			cnt++
		case ast.OpSum:
			ru, err := e.rval(u)
			if err != nil {
				return value.Value{}, false, err
			}
			if err := sumOperand(ru); err != nil {
				return value.Value{}, false, err
			}
			if ctype.IsFloat(ru.Type) {
				sawFloat = true
				fsum += ru.AsFloat()
			} else if ctype.IsInteger(ctype.Strip(ru.Type)) {
				isum += ru.AsInt()
			} else {
				return value.Value{}, false, fmt.Errorf("duel: +/ cannot sum values of type %s", ru.Type)
			}
		case ast.OpAll, ast.OpAny:
			t, err := e.truth(u)
			if err != nil {
				return value.Value{}, false, err
			}
			if t {
				any = true
			} else {
				all = false
			}
			// Like push, &&/ stops at the first zero and ||/ at the
			// first non-zero: the rest of the operand is not evaluated.
			if (n.Op == ast.OpAll && !all) || (n.Op == ast.OpAny && any) {
				m.resetTree(n.Kids[0])
				st.state = 1
				return m.boolVal(n.Op == ast.OpAny), true, nil
			}
		}
	}
	st.state = 1
	switch n.Op {
	case ast.OpCount:
		return m.intVal(cnt), true, nil
	case ast.OpSum:
		if sawFloat {
			f := fsum + float64(isum)
			v := value.MakeFloat(e.Ctx.Arch.Double, f)
			v.Sym = e.atom(strconv.FormatFloat(f, 'g', -1, 64))
			return v, true, nil
		}
		v := value.MakeInt(e.Ctx.Arch.Long, isum)
		v.Sym = e.intAtom(isum)
		return v, true, nil
	case ast.OpAll:
		return m.boolVal(all), true, nil
	default:
		return m.boolVal(any), true, nil
	}
}

func (m *machine) boolVal(b bool) value.Value {
	if b {
		return m.intVal(1)
	}
	return m.intVal(0)
}

// evalCall enumerates the cartesian product of the callee and argument
// generators like an odometer: the rightmost argument advances first, and a
// finished argument resets (its subtree state self-clears on NOVALUE) while
// the one to its left advances.
func (m *machine) evalCall(n *ast.Node, st *mstate) (value.Value, bool, error) {
	e := m.env
	callee := n.Kids[0]
	if callee.Op == ast.OpName {
		if _, ok := e.Ctx.D.GetTargetVariable(callee.Name); !ok {
			switch callee.Name {
			case "frame":
				return m.evalFrameBuiltin(n, st)
			case "frames":
				if st.state == 1 {
					st.state = 0
					return value.Value{}, false, nil
				}
				st.state = 1
				return m.intVal(int64(e.Ctx.D.NumFrames())), true, nil
			}
		}
	}
	nargs := len(n.Kids) - 1
	for {
		switch {
		case st.state == 0: // need a callee value
			fv, ok, err := m.eval(callee)
			if err != nil {
				return value.Value{}, false, err
			}
			if !ok {
				return value.Value{}, false, nil
			}
			rf, err := e.rval(fv)
			if err != nil {
				return value.Value{}, false, err
			}
			pt, ok2 := ctype.Strip(rf.Type).(*ctype.Pointer)
			var sig *ctype.Func
			if ok2 {
				sig, _ = ctype.Strip(pt.Elem).(*ctype.Func)
			}
			if sig == nil {
				return value.Value{}, false, fmt.Errorf("duel: %s is not a function (%s)", e.text(fv.Sym), fv.Type)
			}
			st.fv, st.sig, st.addr = fv, sig, rf.AsUint()
			st.args = make([]value.Value, nargs)
			// Pull the first value of every argument.
			filled := true
			for i := 0; i < nargs; i++ {
				a, ok, err := m.eval(n.Kids[i+1])
				if err != nil {
					return value.Value{}, false, err
				}
				if !ok {
					// Empty argument: no calls for this callee;
					// abandon the args already pulled.
					for j := 0; j < i; j++ {
						m.resetTree(n.Kids[j+1])
					}
					filled = false
					break
				}
				ra, err := e.rval(a)
				if err != nil {
					return value.Value{}, false, err
				}
				st.args[i] = ra.WithSym(a.Sym)
			}
			if !filled {
				continue // next callee value
			}
			st.state = 1
			if v, ok, err := m.callOnce(st); err != nil || ok {
				return v, ok, err
			}
		case st.state == 1: // advance the odometer
			k := nargs - 1
			for k >= 0 {
				a, ok, err := m.eval(n.Kids[k+1])
				if err != nil {
					return value.Value{}, false, err
				}
				if ok {
					ra, err := e.rval(a)
					if err != nil {
						return value.Value{}, false, err
					}
					st.args[k] = ra.WithSym(a.Sym)
					// Restart everything right of k.
					restarted := true
					for j := k + 1; j < nargs; j++ {
						b, ok, err := m.eval(n.Kids[j+1])
						if err != nil {
							return value.Value{}, false, err
						}
						if !ok {
							restarted = false
							break
						}
						rb, err := e.rval(b)
						if err != nil {
							return value.Value{}, false, err
						}
						st.args[j] = rb.WithSym(b.Sym)
					}
					if !restarted {
						return value.Value{}, false, fmt.Errorf("duel: generator argument became empty on re-evaluation")
					}
					break
				}
				k--
			}
			if k < 0 || nargs == 0 {
				st.state = 0 // all combinations done: next callee
				continue
			}
			if v, ok, err := m.callOnce(st); err != nil || ok {
				return v, ok, err
			}
		}
	}
}

// callOnce performs one target call with the current odometer arguments;
// ok=false means the call returned void (produce no value, keep advancing).
func (m *machine) callOnce(st *mstate) (value.Value, bool, error) {
	e := m.env
	in := make([]dbgif.Value, len(st.args))
	if len(st.args) < len(st.sig.Params) {
		return value.Value{}, false, fmt.Errorf("duel: too few arguments in call to %s (%d < %d)", e.text(st.fv.Sym), len(st.args), len(st.sig.Params))
	}
	for i, a := range st.args {
		conv := a
		if i < len(st.sig.Params) {
			var err error
			conv, err = e.Ctx.Convert(a, st.sig.Params[i])
			if err != nil {
				return value.Value{}, false, err
			}
		}
		in[i] = dbgif.Value{Type: conv.Type, Bytes: conv.Bytes()}
	}
	e.Num.Applies++
	out, err := e.Ctx.D.CallTargetFunc(st.addr, in)
	if err != nil {
		if pv, ok := e.containCall(e.callResultSym(st.fv, st.args), err); ok {
			return pv, true, nil
		}
		return value.Value{}, false, fmt.Errorf("duel: call to %s: %w", callSymName(e.text(st.fv.Sym)), err)
	}
	if out.Type == nil || ctype.IsVoid(out.Type) {
		return value.Value{}, false, nil
	}
	res := value.FromBytes(out.Type, out.Bytes)
	res.Sym = e.callResultSym(st.fv, st.args)
	return res, true, nil
}

func (m *machine) evalFrameBuiltin(n *ast.Node, st *mstate) (value.Value, bool, error) {
	e := m.env
	if len(n.Kids) != 2 {
		return value.Value{}, false, fmt.Errorf("duel: frame() takes exactly one argument")
	}
	a, ok, err := m.eval(n.Kids[1])
	if !ok || err != nil {
		return value.Value{}, false, err
	}
	ra, err := e.rval(a)
	if err != nil {
		return value.Value{}, false, err
	}
	lvl := int(ra.AsInt())
	if lvl < 0 || lvl >= e.Ctx.D.NumFrames() {
		return value.Value{}, false, fmt.Errorf("duel: no frame %d (%d active)", lvl, e.Ctx.D.NumFrames())
	}
	v := value.Value{FrameScope: int32(lvl + 1)}
	v.Sym = e.atom("frame(" + strconv.Itoa(lvl) + ")")
	return v, true, nil
}
