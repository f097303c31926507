package core

import (
	"fmt"
	"strings"

	"duel/internal/ctype"
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
//
// What each node computes from its operand values is in sem.go, shared
// with push; this file only holds the per-node resumption that pulls the
// operand values.
type machineBackend struct{}

// Name implements Backend.
func (machineBackend) Name() string { return "machine" }

// Eval implements Backend: the paper's top-level driver.
func (machineBackend) Eval(e *Env, n *ast.Node, emit EmitFn) error {
	e.beginEval()
	defer e.endEval()
	m := &machine{env: e, states: make(map[*ast.Node]*mstate)}
	m.keep = func(v value.Value) error {
		m.out, m.got = v, true
		return nil
	}
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
	l     operand // the saved left-operand value (paper's n->value) and what left2 made of it

	lo, i, hi int64 // iteration registers (to, .., loops)

	// with: the watermark to restore on cleanup, and whether a scope is
	// currently pushed for a suspended production.
	withMark int
	pushed   bool

	ms  memberStep // with, -->: the right side's member, once per struct type
	exp *expansion // -->: the walk
	sel *selection // [[ ]]: the selected values

	// call: current callee and argument values.
	fn   callee
	args []value.Value
}

type machine struct {
	env    *Env
	states map[*ast.Node]*mstate
	depth  int

	// keep is the emit function machine hands the shared semantics: it
	// saves the value in out, for take to return.
	keep EmitFn
	out  value.Value
	got  bool
}

// take returns, the way eval does, the value a semantic method has just
// handed to m.keep; err is that method's error. A method that handed
// none produced NOVALUE.
func (m *machine) take(err error) (value.Value, bool, error) {
	got := m.got
	m.got = false
	if err != nil || !got {
		return value.Value{}, false, err
	}
	return m.out, true, nil
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
	if m.env.Opts.Trace == nil {
		return m.eval1(n)
	}
	m.depth++
	v, ok, err := m.eval1(n)
	m.depth--
	m.trace(n, v, ok, err)
	return v, ok, err
}

// trace logs the outcome of one eval call of n to Options.Trace.
func (m *machine) trace(n *ast.Node, v value.Value, ok bool, err error) {
	w := m.env.Opts.Trace
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
}

func (m *machine) eval1(n *ast.Node) (value.Value, bool, error) {
	e := m.env
	if err := e.step(n); err != nil {
		return value.Value{}, false, err
	}
	st := m.st(n)
	switch n.Op {
	case ast.OpConst, ast.OpFConst, ast.OpStr, ast.OpName, ast.OpSizeofT:
		return m.leaf(n, st)
	case ast.OpNothing:
		return value.Value{}, false, nil
	case ast.OpGroup:
		return m.eval(n.Kids[0])

	case ast.OpNeg, ast.OpPos, ast.OpNot, ast.OpBitNot, ast.OpIndirect, ast.OpAddrOf,
		ast.OpCast, ast.OpPreInc, ast.OpPreDec, ast.OpPostInc, ast.OpPostDec,
		ast.OpCurly, ast.OpDefine:
		return m.map1(n, n.Kids[0])

	case ast.OpPlus, ast.OpMinus, ast.OpMultiply, ast.OpDivide, ast.OpModulo,
		ast.OpShl, ast.OpShr, ast.OpBitAnd, ast.OpBitOr, ast.OpBitXor,
		ast.OpLt, ast.OpGt, ast.OpLe, ast.OpGe, ast.OpEq, ast.OpNe, ast.OpIndex,
		ast.OpIfLt, ast.OpIfGt, ast.OpIfLe, ast.OpIfGe, ast.OpIfEq, ast.OpIfNe,
		ast.OpAssign, ast.OpAddAssign, ast.OpSubAssign, ast.OpMulAssign,
		ast.OpDivAssign, ast.OpModAssign, ast.OpAndAssign, ast.OpOrAssign,
		ast.OpXorAssign, ast.OpShlAssign, ast.OpShrAssign:
		// The paper's bin0/bin1 scheme: e2 restarts for every value of e1.
		for {
			if st.state == 1 {
				v, ok, err := m.eval(n.Kids[1])
				if err != nil {
					return value.Value{}, false, err
				}
				if ok {
					if w, ok, err := m.take(e.cross2(n, &st.l, &v, m.keep)); ok || err != nil {
						return w, ok, err
					}
					continue
				}
				st.state = 0
			}
			u, ok, err := m.eval(n.Kids[0])
			if !ok || err != nil {
				return value.Value{}, false, err
			}
			if err := e.left2(n, &st.l, u); err != nil {
				return value.Value{}, false, err
			}
			st.state = 1
		}

	case ast.OpAndAnd, ast.OpOrOr, ast.OpIf, ast.OpCond, ast.OpImply:
		// while (u = eval(kids[0])) yield u, or every value of the
		// operand branch(u) picks; state is that operand.
		for {
			if st.state > 0 {
				if v, ok, err := m.eval(n.Kids[st.state]); ok || err != nil {
					return v, ok, err
				}
				st.state = 0
			}
			u, ok, err := m.eval(n.Kids[0])
			if !ok || err != nil {
				return value.Value{}, false, err
			}
			k, err := e.branch(n, u)
			if err != nil {
				return value.Value{}, false, err
			}
			if k < 0 {
				return u, true, nil
			}
			st.state = k
		}

	case ast.OpCount, ast.OpSum, ast.OpAll, ast.OpAny, ast.OpSizeofE, ast.OpDecl:
		if st.state == 1 {
			st.state = 0
			return value.Value{}, false, nil
		}
		r, err := e.foldStart(n)
		if err == nil && len(n.Kids) > 0 {
			err = m.fold(&r, n.Kids[0])
		}
		if err != nil {
			return value.Value{}, false, err
		}
		v, ok, err := m.take(e.foldOut(&r, m.keep))
		if ok {
			st.state = 1
		}
		return v, ok, err

	case ast.OpTo, ast.OpToPrefix, ast.OpToOpen:
		return m.evalRange(n, st)
	case ast.OpWhile:
		return m.evalLoop(st, nil, n.Kids[0], nil, n.Kids[1])
	case ast.OpFor:
		return m.evalLoop(st, n.Kids[0], n.Kids[1], n.Kids[2], n.Kids[3])
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
	case ast.OpIndexOf:
		u, ok, err := m.eval(n.Kids[0])
		if !ok || err != nil {
			st.i = 0
			return value.Value{}, false, err
		}
		e.indexOf(n, st.i)
		st.i++
		return u, true, nil

	case ast.OpSelect:
		return m.evalSelect(n, st)
	case ast.OpUntil:
		u, ok, err := m.eval(n.Kids[0])
		if !ok || err != nil {
			return value.Value{}, false, err
		}
		stop, err := e.untilStops(u, n.Kids[1], m.any)
		if err != nil {
			return value.Value{}, false, err
		}
		if stop {
			m.resetTree(n.Kids[0])
			return value.Value{}, false, nil
		}
		return u, true, nil
	case ast.OpWithDot, ast.OpWithArrow:
		if e.cDirectField(n.Kids[1]) {
			return m.map1(n, n.Kids[0])
		}
		return m.evalWith(n, st)
	case ast.OpDfs, ast.OpBfs:
		return m.evalExpand(n, st)
	case ast.OpCall:
		switch b, err := e.builtin(n); {
		case err != nil:
			return value.Value{}, false, err
		case b == "frame":
			return m.map1(n, n.Kids[1])
		case b == "frames":
			return m.leaf(n, st)
		}
		return m.evalCall(n, st)
	}
	return value.Value{}, false, fmt.Errorf("duel: machine backend: unimplemented operator %s", n.Op)
}

// leaf produces a leaf's one value, then NOVALUE.
func (m *machine) leaf(n *ast.Node, st *mstate) (value.Value, bool, error) {
	if st.state == 1 {
		st.state = 0
		return value.Value{}, false, nil
	}
	st.state = 1
	return m.take(m.env.leaf(n, m.keep))
}

// map1 is while (u = eval(kid)) yield apply1(n, u).
func (m *machine) map1(n, kid *ast.Node) (value.Value, bool, error) {
	u, ok, err := m.eval(kid)
	if !ok || err != nil {
		return value.Value{}, false, err
	}
	return m.take(m.env.apply1(n, u, m.keep))
}

// fold folds the values of k into r, abandoning k once r is decided.
func (m *machine) fold(r *fold, k *ast.Node) error {
	for {
		u, ok, err := m.eval(k)
		if !ok || err != nil {
			return err
		}
		stop, err := m.env.foldIn(r, u)
		if err != nil {
			return err
		}
		if stop {
			m.resetTree(k)
			return nil
		}
	}
}

// any reports whether some value of k is non-zero, stopping at the first.
func (m *machine) any(k *ast.Node) (bool, error) {
	r := fold{op: ast.OpAny}
	err := m.fold(&r, k)
	return r.done, err
}

// evalRange is while (u) [while (v)] for (i = lo; !rangeDone; i++) yield
// i. State 0 pulls the first bound, 1 pulls hi (lo..hi only), 2 counts.
func (m *machine) evalRange(n *ast.Node, st *mstate) (value.Value, bool, error) {
	e := m.env
	for {
		switch st.state {
		case 2:
			done, err := e.rangeDone(n, st.lo, st.i, st.hi, st.l.u.Sym)
			if err != nil {
				return value.Value{}, false, err
			}
			if !done {
				st.i++
				return m.take(e.yieldInt(st.i-1, m.keep))
			}
			st.state = 0
			if n.Op == ast.OpTo {
				st.state = 1
			}
		case 1:
			v, ok, err := m.eval(n.Kids[1])
			if err != nil {
				return value.Value{}, false, err
			}
			if !ok {
				st.state = 0
				continue
			}
			if st.hi, err = e.rangeBound(v); err != nil {
				return value.Value{}, false, err
			}
			st.i, st.state = st.lo, 2
		default:
			u, ok, err := m.eval(n.Kids[0])
			if !ok || err != nil {
				return value.Value{}, false, err
			}
			b, err := e.rangeBound(u)
			if err != nil {
				return value.Value{}, false, err
			}
			st.l.u, st.lo, st.i, st.state = u, b, b, 2
			switch n.Op {
			case ast.OpTo:
				st.state = 1
			case ast.OpToPrefix:
				st.lo, st.i, st.hi = 0, 0, b
			}
		}
	}
}

// evalLoop implements while and for. state 0 = check condition, 1 = yield
// body values. st.i records that init ran; st.hi counts iterations across
// the calls that resume the body, so the MaxOpenRange bound holds however
// many values each iteration yields.
func (m *machine) evalLoop(st *mstate, init, cond, post, body *ast.Node) (value.Value, bool, error) {
	e := m.env
	if st.state == 0 && init != nil && init.Op != ast.OpNothing && st.i == 0 {
		if err := m.drain(init); err != nil {
			return value.Value{}, false, err
		}
		st.i = 1 // init ran
	}
	for {
		if st.state == 1 {
			if v, ok, err := m.eval(body); ok || err != nil {
				return v, ok, err
			}
			if post != nil && post.Op != ast.OpNothing {
				if err := m.drain(post); err != nil {
					return value.Value{}, false, err
				}
			}
			st.state = 0
		}
		if err := e.loopCheck(st.hi); err != nil {
			return value.Value{}, false, err
		}
		st.hi++
		if cond.Op != ast.OpNothing {
			r := fold{op: ast.OpAll}
			if err := m.fold(&r, cond); err != nil {
				return value.Value{}, false, err
			}
			if r.done {
				st.i, st.hi = 0, 0
				return value.Value{}, false, nil
			}
		}
		st.state = 1
	}
}

// evalSelect collects e2 and runs e1 up to the largest index on its first
// call, then produces one selected value per call.
func (m *machine) evalSelect(n *ast.Node, st *mstate) (value.Value, bool, error) {
	e := m.env
	if st.sel == nil {
		s := &selection{}
		for {
			v, ok, err := m.eval(n.Kids[1])
			if err != nil {
				return value.Value{}, false, err
			}
			if !ok {
				break
			}
			if err := e.selectIndex(s, v); err != nil {
				return value.Value{}, false, err
			}
		}
		for len(s.idxs) > 0 {
			u, ok, err := m.eval(n.Kids[0])
			if err != nil {
				return value.Value{}, false, err
			}
			if !ok {
				break
			}
			if !s.keep(u) {
				m.resetTree(n.Kids[0])
				break
			}
		}
		st.sel = s
	}
	if u, ok := st.sel.next(); ok {
		return u, true, nil
	}
	st.sel = nil
	return value.Value{}, false, nil
}

// evalWith is the paper's WITH state machine: the scope stays pushed while
// values of e2 are being produced (including across suspensions).
func (m *machine) evalWith(n *ast.Node, st *mstate) (value.Value, bool, error) {
	e := m.env
	if st.ms.kid == nil {
		st.ms = e.newMemberStep(n.Kids[1])
	}
	for {
		if st.state == 1 {
			w, ok, err := m.scoped(&st.ms, st.withMark)
			if err != nil {
				return value.Value{}, false, err
			}
			if ok {
				return w.WithSym(e.scopedSym(n, st.l.u.Sym, w.Sym)), true, nil
			}
			e.popWith()
			st.pushed = false
			st.state = 0
		}
		u, ok, err := m.eval(n.Kids[0])
		if !ok || err != nil {
			return value.Value{}, false, err
		}
		mark := len(e.withStack)
		if _, err := e.openWith(n, u); err != nil {
			return value.Value{}, false, err
		}
		st.l.u, st.withMark, st.pushed, st.state = u, mark, true, 1
	}
}

// scoped produces the next value of the right side of a with or --> node,
// in the scope of the entry at mark that the node pushed. A member name
// goes through the shared memberStep and is traced as eval would trace it.
func (m *machine) scoped(ms *memberStep, mark int) (value.Value, bool, error) {
	w := &m.env.withStack[mark]
	f, ok := ms.field(w)
	if !ok {
		return m.eval(ms.kid)
	}
	v, ok, err := m.member(ms, w, f)
	if m.env.Opts.Trace != nil {
		m.trace(ms.kid, v, ok, err)
	}
	return v, ok, err
}

// member is eval of a member name that resolved to f: one value, then
// NOVALUE, from the name's own state, with the steps eval would count.
func (m *machine) member(ms *memberStep, w *withEntry, f *ctype.Field) (value.Value, bool, error) {
	if err := m.env.step(ms.kid); err != nil {
		return value.Value{}, false, err
	}
	ks := m.st(ms.kid)
	if ks.state == 1 {
		ks.state = 0
		return value.Value{}, false, nil
	}
	ks.state = 1
	return m.take(m.env.member(ms, w, f, m.keep))
}

// evalExpand produces one node of the walk per call: state 1 opens the
// next node of the work list, state 0 pulls the next root from e1.
func (m *machine) evalExpand(n *ast.Node, st *mstate) (value.Value, bool, error) {
	e := m.env
	if st.exp == nil {
		st.exp = &expansion{bfs: n.Op == ast.OpBfs}
		st.ms = e.newMemberStep(n.Kids[1])
	}
	x := st.exp
	for {
		if st.state == 1 {
			ok, err := e.expandNext(x)
			if err != nil {
				return value.Value{}, false, err
			}
			if ok {
				err := m.expandKids(x, &st.ms)
				e.popWith()
				if err != nil {
					return value.Value{}, false, err
				}
				return x.visit(), true, nil
			}
			st.state = 0
		}
		u, ok, err := m.eval(n.Kids[0])
		if !ok || err != nil {
			return value.Value{}, false, err
		}
		if err := e.expandRoot(x, u); err != nil {
			return value.Value{}, false, err
		}
		st.state = 1
	}
}

// expandKids drains e2 in the scope expandNext pushed.
func (m *machine) expandKids(x *expansion, ms *memberStep) error {
	mark := len(m.env.withStack) - 1
	for {
		w, ok, err := m.scoped(ms, mark)
		if !ok || err != nil {
			return err
		}
		if err := m.env.expandKid(x, &w); err != nil {
			return err
		}
	}
}

// evalCall enumerates the cartesian product of the callee and argument
// generators like an odometer: the rightmost argument advances first; an
// exhausted argument (its subtree state self-clears on NOVALUE) hands the
// advance to the one on its left, and each argument right of an advanced
// one starts over.
func (m *machine) evalCall(n *ast.Node, st *mstate) (value.Value, bool, error) {
	e := m.env
	nargs := len(n.Kids) - 1
	for {
		j := nargs - 1 // the argument to advance
		if st.state == 0 {
			fv, ok, err := m.eval(n.Kids[0])
			if !ok || err != nil {
				return value.Value{}, false, err
			}
			if st.fn, err = e.callee(fv); err != nil {
				return value.Value{}, false, err
			}
			st.args = make([]value.Value, nargs)
			st.state, j = 1, 0
		}
		for 0 <= j && j < nargs {
			a, ok, err := m.eval(n.Kids[j+1])
			if err != nil {
				return value.Value{}, false, err
			}
			if !ok {
				j--
				continue
			}
			if st.args[j], err = e.callArg(a); err != nil {
				return value.Value{}, false, err
			}
			j++
		}
		if j < 0 {
			st.state = 0 // all combinations done: next callee
			continue
		}
		if v, ok, err := m.take(e.callOnce(&st.fn, st.args, m.keep)); ok || err != nil {
			return v, ok, err
		}
	}
}
