package core

import (
	"fmt"
	"strconv"

	"duel/internal/ctype"
	"duel/internal/dbgif"
	"duel/internal/duel/ast"
	"duel/internal/duel/value"
)

// The semantics of every node kind: what a node computes from its operand
// values. The two drivers, push and machine, decide only how operand values
// are pulled (the control) and call these methods for everything else, so
// a fix or a speedup here reaches both.
//
// A method that produces a node's value hands it to an emit function
// instead of returning it: push passes its yield, machine a function that
// saves the value for eval to return. A Value is 56 bytes and travels in
// memory, not registers, so a return through one more call per element
// would add a copy to push's hot path.
//
// Each driver groups the operators by control shape:
//
//   - leaf: one value (leaf);
//   - group: the operand's values, unchanged — symbolic composition
//     re-inserts parentheses from the recorded precedence exactly where
//     they are needed ("6*8" stays "6*8"; "x+1" under * becomes "(x+1)*2");
//   - map-one: one value per operand value (apply1);
//   - cross-two: e2 re-evaluated for every value of e1 (left2, cross2);
//   - branch: e2 or e3 chosen per value of e1 (branch);
//   - fold: one value from all of the operand's values (fold);
//   - special forms: ranges, loops, [[ ]], @, with, -->, calls.

// --- leaves ---

// leaf computes the one value of a leaf node: a constant, a string
// literal, a name, sizeof(type) or the frames() built-in.
func (e *Env) leaf(n *ast.Node, emit EmitFn) error {
	var v value.Value
	var err error
	switch n.Op {
	case ast.OpConst:
		return emit(e.constValue(n))
	case ast.OpFConst:
		v = value.MakeFloat(e.Ctx.Arch.Double, n.Float)
		v.Sym = e.atom(n.Text)
	case ast.OpStr:
		v, err = e.internString(n)
	case ast.OpSizeofT:
		return e.yieldSize(int64(n.Type.Size()), emit)
	case ast.OpCall:
		return e.yieldInt(int64(e.Ctx.D.NumFrames()), emit)
	default:
		v, err = e.fetch(n.Name)
	}
	if err != nil {
		return err
	}
	return emit(v)
}

// constEntry is an integer constant's value, built once per evaluation.
type constEntry struct {
	n *ast.Node
	v value.Value
}

// constValue is the value of the integer constant n. The first use in an
// evaluation builds it and keeps it in e.consts; every use counts its atom.
func (e *Env) constValue(n *ast.Node) value.Value {
	for i := range e.consts {
		if c := &e.consts[i]; c.n == n {
			e.countSym()
			return c.v
		}
	}
	v := value.MakeInt(constType(e.Ctx.Arch, n), int64(n.Int))
	v.Sym = e.atom(n.Text)
	e.consts[e.nextConst] = constEntry{n: n, v: v}
	e.nextConst = (e.nextConst + 1) % len(e.consts)
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

// yieldInt emits an int whose symbolic value is the integer itself — the
// paper: "a..b's symbolic value is the current iteration value".
func (e *Env) yieldInt(i int64, emit EmitFn) error {
	v := value.MakeInt(e.Ctx.Arch.Int, i)
	v.Sym = e.intAtom(i)
	return emit(v)
}

// yieldSize emits a size, an unsigned long, for sizeof.
func (e *Env) yieldSize(size int64, emit EmitFn) error {
	v := value.MakeInt(e.Ctx.Arch.ULong, size)
	v.Sym = e.intAtom(size)
	return emit(v)
}

// --- map-one ---

// apply1 computes the value a map-one node produces for one operand value
// u and hands it to emit: the C unary operators, casts, ++ and --, the {}
// display override, :=, a C-scoped field access (CScoping) and frame(i).
func (e *Env) apply1(n *ast.Node, u value.Value, emit EmitFn) error {
	var w value.Value
	var err error
	switch n.Op {
	case ast.OpCurly:
		s, err := e.FormatScalar(u)
		if err != nil {
			return err
		}
		return emit(u.WithSym(e.atom(s)))
	case ast.OpDefine:
		e.SetAlias(n.Name, u)
		return emit(u)
	case ast.OpWithDot, ast.OpWithArrow:
		if w, err = e.directField(u, n.Kids[1].Name, n.Op == ast.OpWithArrow); err != nil {
			return err
		}
		return emit(w.WithSym(e.scopedSym(n, u.Sym, w.Sym)))
	case ast.OpCall:
		w, err = e.frameScope(u)
	case ast.OpAddrOf:
		e.Num.Applies++
		if w, err = e.Ctx.AddrOf(u); err != nil {
			return err
		}
		return emit(w.WithSym(e.preSym("&", u.Sym)))
	case ast.OpPreInc, ast.OpPreDec, ast.OpPostInc, ast.OpPostDec:
		w, err = e.incDec(n, u)
	default:
		if err := e.load(&u); err != nil {
			return err
		}
		e.Num.Applies++
		sym := n.Op.Symbol()
		switch n.Op {
		case ast.OpIndirect:
			w, err = e.Ctx.Deref(u)
		case ast.OpCast:
			w, err = e.Ctx.Convert(u, n.Type)
			sym = "(" + n.Type.String() + ")"
		default:
			w, err = e.Ctx.Unary(n.Op, u)
		}
		if err != nil {
			return err
		}
		return emit(w.WithSym(e.preSym(sym, u.Sym)))
	}
	if err != nil {
		return err
	}
	return emit(w)
}

// incDec implements ++e, --e, e++ and e-- on one lvalue u.
func (e *Env) incDec(n *ast.Node, u value.Value) (value.Value, error) {
	op, symOp := ast.OpPlus, "++"
	if n.Op == ast.OpPreDec || n.Op == ast.OpPostDec {
		op, symOp = ast.OpMinus, "--"
	}
	old := u
	if err := e.load(&old); err != nil {
		return value.Value{}, err
	}
	e.Num.Applies++
	upd, err := e.Ctx.Binary(op, old, value.MakeInt(e.Ctx.Arch.Int, 1))
	if err != nil {
		return value.Value{}, err
	}
	if err := e.Ctx.Store(u, upd); err != nil {
		if pv, ok := e.containStore(u, err); ok {
			return pv, nil
		}
		return value.Value{}, err
	}
	if n.Op == ast.OpPostInc || n.Op == ast.OpPostDec {
		return old.WithSym(e.postSym(u.Sym, symOp)), nil
	}
	conv, err := e.Ctx.Convert(upd, u.Type)
	if err != nil {
		return value.Value{}, err
	}
	return conv.WithSym(e.preSym(symOp, u.Sym)), nil
}

// --- cross-two ---

// operand is the current left value of a cross-two node: the value u and
// what left2 made of it, r. The drivers keep it per node.
type operand struct{ u, r value.Value }

// left2 prepares one value u of a cross-two node's left operand, once per
// left value: l.r is its rvalue, or for an assignment, after the check
// that u is an lvalue, unused.
func (e *Env) left2(n *ast.Node, l *operand, u value.Value) error {
	l.u = u
	if n.Op == ast.OpAssign || compoundBase(n.Op) != ast.OpInvalid {
		if !u.IsLvalue {
			return fmt.Errorf("duel: %s is not an lvalue", e.text(u.Sym))
		}
		return nil
	}
	l.r = u
	return e.load(&l.r)
}

// cross2 computes what a cross-two node produces for its left operand l
// and one right operand value v, and hands it to emit: a C binary operator
// or [] applied to the two, a DUEL ?-comparison's left operand when the
// comparison holds (nothing when it does not), or an assignment. It runs
// once per element, so it takes its operands by pointer and emits instead
// of returning a value: push's yield then takes the value directly. It
// loads *v in place.
func (e *Env) cross2(n *ast.Node, l *operand, v *value.Value, emit EmitFn) error {
	if err := e.load(v); err != nil {
		return err
	}
	switch n.Op {
	case ast.OpAssign, ast.OpAddAssign, ast.OpSubAssign, ast.OpMulAssign,
		ast.OpDivAssign, ast.OpModAssign, ast.OpAndAssign, ast.OpOrAssign,
		ast.OpXorAssign, ast.OpShlAssign, ast.OpShrAssign:
		w, err := e.assignOne(n, &l.u, *v)
		if err != nil {
			return err
		}
		return emit(w)
	}
	e.Num.Applies++
	if n.Op == ast.OpIndex {
		w, err := e.Ctx.Index(l.r, *v)
		if err != nil {
			return err
		}
		return emit(w.WithSym(e.indexSym(l.u.Sym, v.Sym)))
	}
	w, err := e.Ctx.Binary(n.Op, l.r, *v)
	if err != nil {
		return err
	}
	switch n.Op {
	case ast.OpIfLt, ast.OpIfGt, ast.OpIfLe, ast.OpIfGe, ast.OpIfEq, ast.OpIfNe:
		if w.IsZero() {
			return nil
		}
		return emit(l.u)
	}
	return emit(w.WithSym(e.binSym(l.u.Sym, n.Op.Symbol(), v.Sym, opPrec(n.Op))))
}

// assignOne implements = and the compound assignments for the lvalue u and
// one right operand rvalue rv: store, and produce the lvalue (whose display
// then shows the assigned value, e.g. "x[0] = 5").
func (e *Env) assignOne(n *ast.Node, u *value.Value, rv value.Value) (value.Value, error) {
	if base := compoundBase(n.Op); base != ast.OpInvalid {
		old := *u
		if err := e.load(&old); err != nil {
			return value.Value{}, err
		}
		e.Num.Applies++
		var err error
		if rv, err = e.Ctx.Binary(base, old, rv); err != nil {
			return value.Value{}, err
		}
	}
	e.Num.Applies++
	if err := e.Ctx.Store(*u, rv); err != nil {
		if pv, ok := e.containStore(*u, err); ok {
			return pv, nil
		}
		return value.Value{}, err
	}
	return *u, nil
}

// --- branch ---

// branch decides what a branching node produces for one value u of its
// first operand: all values of operand k (k > 0), u itself (k < 0), or
// nothing (k == 0). && takes e2 for a non-zero u; || passes a non-zero u
// and takes e2 for a zero one (the paper's generator semantics); if and ?:
// take the then or the else operand; => takes e2 for every u.
func (e *Env) branch(n *ast.Node, u value.Value) (int, error) {
	if n.Op == ast.OpImply {
		return 1, nil
	}
	t, err := e.truth(u)
	switch {
	case err != nil:
		return 0, err
	case t && n.Op == ast.OpOrOr:
		return -1, nil
	case t || n.Op == ast.OpOrOr:
		return 1, nil
	case len(n.Kids) > 2:
		return 2, nil
	}
	return 0, nil
}

func (e *Env) truth(u value.Value) (bool, error) {
	if err := e.load(&u); err != nil {
		return false, err
	}
	return e.Ctx.Truth(u)
}

// --- fold ---

// fold accumulates a node that makes at most one value from all of its
// operand's values: #/, +/, &&/, ||/, sizeof e, and a declaration, which
// stores its initializer's first value and produces none. The drivers also
// fold a while condition (&&/: every value non-zero) and an @ condition
// (||/: some value non-zero).
type fold struct {
	op    ast.Op
	i     int64   // #/ count, +/ integer sum, sizeof size
	f     float64 // +/ floating sum
	float bool    // +/ saw a floating value
	done  bool    // decided: &&/ met a zero, ||/ a non-zero, sizeof or a declaration a value
	lv    value.Value
}

// foldStart begins folding node n. A declaration allocates its storage
// here (once per node), before its initializer runs.
func (e *Env) foldStart(n *ast.Node) (fold, error) {
	r := fold{op: n.Op}
	if n.Op != ast.OpDecl {
		return r, nil
	}
	var err error
	r.lv, err = e.declStorage(n)
	return r, err
}

// foldIn folds in one operand value u. stop reports that the result is
// decided, so the rest of the operand need not run.
func (e *Env) foldIn(r *fold, u value.Value) (stop bool, err error) {
	switch r.op {
	case ast.OpCount:
		r.i++
		return false, nil
	case ast.OpSum:
		if err := e.load(&u); err != nil {
			return false, err
		}
		switch {
		case u.IsPoison():
			// A total cannot be produced with an element missing.
			return false, u.Err()
		case ctype.IsFloat(u.Type):
			r.float = true
			r.f += u.AsFloat()
		case ctype.IsInteger(ctype.Strip(u.Type)):
			r.i += u.AsInt()
		default:
			return false, fmt.Errorf("duel: +/ cannot sum values of type %s", u.Type)
		}
		return false, nil
	case ast.OpSizeofE:
		if u.IsPoison() {
			return true, u.Err()
		}
		r.i, r.done = int64(ctype.Strip(u.Type).Size()), true
		return true, nil
	case ast.OpDecl:
		r.done = true
		return true, e.declInit(r.lv, u)
	}
	t, err := e.truth(u)
	if err != nil {
		return false, err
	}
	r.done = t == (r.op == ast.OpAny)
	return r.done, nil
}

// foldOut emits the folded node's value; a declaration has none.
func (e *Env) foldOut(r *fold, emit EmitFn) error {
	switch r.op {
	case ast.OpDecl:
		return nil
	case ast.OpSizeofE:
		if !r.done {
			return fmt.Errorf("duel: sizeof operand produced no values")
		}
		return e.yieldSize(r.i, emit)
	case ast.OpSum:
		if r.float {
			f := r.f + float64(r.i)
			v := value.MakeFloat(e.Ctx.Arch.Double, f)
			v.Sym = e.atom(strconv.FormatFloat(f, 'g', -1, 64))
			return emit(v)
		}
		v := value.MakeInt(e.Ctx.Arch.Long, r.i)
		v.Sym = e.intAtom(r.i)
		return emit(v)
	case ast.OpAll, ast.OpAny:
		if r.done == (r.op == ast.OpAny) {
			return e.yieldInt(1, emit)
		}
		return e.yieldInt(0, emit)
	}
	return e.yieldInt(r.i, emit)
}

// declInit stores the first value v of a declaration's initializer in the
// declared variable lv.
func (e *Env) declInit(lv, v value.Value) error {
	if err := e.load(&v); err != nil {
		return err
	}
	return e.Ctx.Store(lv, v)
}

// --- ranges and loops ---

func (e *Env) rangeBound(u value.Value) (int64, error) {
	if err := e.load(&u); err != nil {
		return 0, err
	}
	if u.IsPoison() {
		// A range cannot proceed without its bound; the containment
		// stops here and the fault aborts the (sub)expression.
		return 0, u.Err()
	}
	if !ctype.IsInteger(ctype.Strip(u.Type)) {
		return 0, fmt.Errorf("duel: range bound %s is not an integer (%s)", e.text(u.Sym), u.Type)
	}
	return u.AsInt(), nil
}

// rangeDone reports whether a range node has produced its last value
// before i: lo..hi ends past hi, ..hi at hi, and lo.. (lsym the symbolic
// value of lo) after the largest long, but it fails after MaxOpenRange
// values. The drivers count i up from lo, so i < lo means that i++ wrapped
// past the largest long.
func (e *Env) rangeDone(n *ast.Node, lo, i, hi int64, lsym value.Sym) (bool, error) {
	switch {
	case i < lo:
		return true, nil
	case n.Op == ast.OpTo:
		return i > hi, nil
	case n.Op == ast.OpToPrefix:
		return i >= hi, nil
	case i-lo < int64(e.Opts.MaxOpenRange):
		return false, nil
	}
	return true, e.openRangeError(lsym)
}

func (e *Env) openRangeError(lsym value.Sym) error {
	return fmt.Errorf("duel: unbounded generator %s.. exceeded %d values", e.text(lsym), e.Opts.MaxOpenRange)
}

// loopCheck bounds the iterations of while and for by MaxOpenRange.
func (e *Env) loopCheck(iter int64) error {
	if iter >= int64(e.Opts.MaxOpenRange) {
		return fmt.Errorf("duel: loop exceeded %d iterations", e.Opts.MaxOpenRange)
	}
	return nil
}

// indexOf is e#name at the j-th value of e: name aliases j.
func (e *Env) indexOf(n *ast.Node, j int64) {
	e.SetAlias(n.Name, value.MakeInt(e.Ctx.Arch.Int, j))
}

// --- e1[[e2]] ---

// selection is one evaluation of e1[[e2]]: e2's indices are collected
// first, then e1 is enumerated once up to the largest of them with the
// needed values cached — the paper notes the real implementation "avoids
// the re-evaluation of e2 when possible"; caching achieves the same effect.
type selection struct {
	idxs []int64
	max  int64
	need map[int64]bool
	vals map[int64]value.Value
	j    int64 // index of e1's next value
	pos  int   // next entry of idxs to produce
}

// selectIndex checks and records one value v of e2.
func (e *Env) selectIndex(s *selection, v value.Value) error {
	if err := e.load(&v); err != nil {
		return err
	}
	if !ctype.IsInteger(ctype.Strip(v.Type)) {
		return fmt.Errorf("duel: [[...]] index %s is not an integer (%s)", e.text(v.Sym), v.Type)
	}
	i := v.AsInt()
	if i < 0 {
		return fmt.Errorf("duel: [[...]] index %d is negative", i)
	}
	s.idxs = append(s.idxs, i)
	s.max = max(s.max, i)
	return nil
}

// keep records e1's next value u, reporting whether e1 must go on.
func (s *selection) keep(u value.Value) bool {
	if s.need == nil {
		s.need = make(map[int64]bool, len(s.idxs))
		for _, i := range s.idxs {
			s.need[i] = true
		}
		s.vals = make(map[int64]value.Value, len(s.need))
	}
	if s.need[s.j] {
		s.vals[s.j] = u
	}
	s.j++
	return s.j <= s.max
}

// next returns the next selected value, in e2's order; an index past the
// end of e1 selects nothing. ok is false when all are produced.
func (s *selection) next() (value.Value, bool) {
	for s.pos < len(s.idxs) {
		u, ok := s.vals[s.idxs[s.pos]]
		s.pos++
		if ok {
			return u, true
		}
	}
	return value.Value{}, false
}

// --- e@n ---

// untilStops decides whether e@n stops at value u. For a constant n it
// compares u == n; otherwise it opens u's scope and asks anyCond to
// evaluate the condition node, reporting whether any value was non-zero.
func (e *Env) untilStops(u value.Value, stopKid *ast.Node, anyCond func(*ast.Node) (bool, error)) (bool, error) {
	if stopKid.Op == ast.OpConst || stopKid.Op == ast.OpFConst {
		if err := e.load(&u); err != nil {
			return false, err
		}
		stop := value.MakeFloat(e.Ctx.Arch.Double, stopKid.Float)
		if stopKid.Op == ast.OpConst {
			stop = e.constValue(stopKid)
		}
		e.Num.Applies++
		w, err := e.Ctx.Binary(ast.OpEq, u, stop)
		if err != nil {
			return false, err
		}
		return !w.IsZero(), nil
	}
	w := e.pushWith()
	defer e.popWith()
	w.orig = u
	if e.load(&w.orig) == nil {
		switch t := ctype.Strip(w.orig.Type).(type) {
		case *ctype.Struct:
			w.scope, w.hasScope = w.orig, true
		case *ctype.Pointer:
			if addr := w.orig.AsUint(); e.validAddr(t, addr) {
				w.openPointee(t, addr)
			}
		}
	}
	return anyCond(stopKid)
}

// --- '.' and '->' ---

// openWith pushes the name-resolution entry of one value u of a '.' or
// '->' node's left operand. The pointer is valid until the next push.
func (e *Env) openWith(n *ast.Node, u value.Value) (*withEntry, error) {
	w := e.pushWith()
	if err := e.makeWithEntry(w, u, n.Op == ast.OpWithArrow); err != nil {
		e.popWith()
		return nil, err
	}
	return w, nil
}

// scopedSym is the symbolic value of what a '.' or '->' node produces: a
// right-side value of symbolic value wsym, in the scope of a left value of
// symbolic value usym.
func (e *Env) scopedSym(n *ast.Node, usym, wsym value.Sym) value.Sym {
	op := "."
	if n.Op == ast.OpWithArrow {
		op = "->"
	}
	return e.withSym(usym, op, wsym)
}

// makeWithEntry fills w, a fresh entry (pushWith), with the
// name-resolution entry for one operand of '.' or '->': the original value
// (for "_"), the opened struct scope, or — for a null/invalid pointer — the
// lazily-faulting field set.
func (e *Env) makeWithEntry(w *withEntry, u value.Value, arrow bool) error {
	w.orig = u
	if u.FrameScope > 0 {
		w.scope = u
		w.hasScope = true
		return nil
	}
	if !arrow {
		if _, ok := ctype.Strip(u.Type).(*ctype.Struct); ok {
			w.scope = u
			w.hasScope = true
		}
		return nil
	}
	if err := e.load(&w.orig); err != nil {
		return err
	}
	if w.orig.IsPoison() {
		// The read of the pointer itself faulted (ErrorValues). Field
		// names still resolve — via the statically known pointee type —
		// but each resolution yields an error value carrying the fault.
		if elem, ok := ctype.PointerElem(u.Type); ok {
			if est, isStruct := ctype.Strip(elem).(*ctype.Struct); isStruct {
				w.badType = est
				w.badErr = w.orig.Err()
			}
		}
		return nil
	}
	// One type pass: the pointer type is stripped and asserted once, and
	// the scope lvalue is built from it directly.
	pt, ok := ctype.Strip(w.orig.Type).(*ctype.Pointer)
	if !ok {
		return fmt.Errorf("duel: %s is not a pointer (%s); cannot apply ->", e.text(u.Sym), w.orig.Type)
	}
	addr := w.orig.AsUint()
	if !e.validAddr(pt, addr) {
		if est, ok := ctype.Strip(pt.Elem).(*ctype.Struct); ok {
			w.badType = est
			w.badAddr = addr
		}
		return nil
	}
	w.openPointee(pt, addr)
	return nil
}

// openPointee opens the scope of the struct that w.orig, a valid pointer
// of type pt to addr, points to; any other pointee opens none.
func (w *withEntry) openPointee(pt *ctype.Pointer, addr uint64) {
	if _, ok := ctype.Strip(pt.Elem).(*ctype.Struct); ok {
		w.scope = value.Lvalue(pt.Elem, addr)
		w.scope.Sym = w.orig.Sym
		w.hasScope = true
	}
}

// directField resolves C-style field access u.name / u->name without
// opening a with-scope (Options.CScoping). "_" still denotes the operand.
func (e *Env) directField(u value.Value, name string, arrow bool) (value.Value, error) {
	var entry withEntry
	if err := e.makeWithEntry(&entry, u, arrow); err != nil {
		return value.Value{}, err
	}
	if name == "_" {
		return entry.orig, nil
	}
	if entry.badType != nil {
		if _, ok := entry.badType.Field(name); ok {
			return e.badFieldRef(&entry, name)
		}
	}
	if entry.hasScope {
		if entry.scope.FrameScope > 0 {
			if vi, ok := e.Ctx.D.FrameVariable(int(entry.scope.FrameScope)-1, name); ok {
				lv := value.Lvalue(vi.Type, vi.Addr)
				lv.Sym = e.atom(name)
				return lv, nil
			}
			return value.Value{}, fmt.Errorf("duel: no local %q in frame %d", name, entry.scope.FrameScope-1)
		}
		f, err := e.Ctx.Field(entry.scope, name)
		if err != nil {
			return value.Value{}, err
		}
		f.Sym = e.atom(name)
		return f, nil
	}
	return value.Value{}, fmt.Errorf("duel: %s has no member %q", e.text(u.Sym), name)
}

// cDirectField reports whether the with node should use C field semantics.
func (e *Env) cDirectField(kid *ast.Node) bool {
	return e.Opts.CScoping && kid.Op == ast.OpName
}

// memberStep is the per-evaluation state of the right side of a '.', '->'
// or '-->' node: when it is a plain member name, the member resolved for
// the struct type the node opened last. A driver keeps it with the node's
// evaluation, never on the AST, which several goroutines may evaluate at
// once.
//
// It also keeps the member name's atom, made on first use: a memberStep
// lives no longer than the evaluation whose symbolic store holds it.
type memberStep struct {
	kid    *ast.Node
	member bool // kid is a member name; "_" and C scoping keep the general path
	st     *ctype.Struct
	f      *ctype.Field // kid's member of st; nil when st has none
	sym    value.Sym    // kid's atom; zero until first made
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

// member emits the field lvalue of member f in the scope w, with the
// lookup and the atom that fetch would count.
func (e *Env) member(m *memberStep, w *withEntry, f *ctype.Field, emit EmitFn) error {
	e.Num.Lookups++
	v := value.MemberLvalue(w.scope.Addr, f)
	if m.sym == (value.Sym{}) {
		m.sym = e.atom(m.kid.Name) // stays zero with Options.Symbolic off
	} else {
		e.countSym()
	}
	v.Sym = m.sym
	return emit(v)
}

// --- --> and -->> ---

// expansion is one walk of e1-->e2 (depth-first, the paper's dfs with
// children stacked in reverse) or e1-->>e2 (breadth-first, the paper's
// "other orderings"). Null or invalid pointers terminate their branch;
// with Opts.CycleDetect, already-visited nodes are skipped (extension —
// the paper's implementation "does not handle cycles").
//
// A node awaiting its visit is its pointer rvalue, whose symbolic value is
// its path: one derivation step from the path of the node it was reached
// from, so a node costs the same at any depth. The work list and the child
// buffer serve every root of one evaluation.
type expansion struct {
	bfs        bool
	visited    map[uint64]bool
	work, kids []value.Value // kids: children of cur, in e2's order
	cur        value.Value   // the node being opened
	root       value.Sym
	visits     int
}

// expandRoot starts the walk from one value u of e1.
func (e *Env) expandRoot(x *expansion, u value.Value) error {
	if err := e.load(&u); err != nil {
		return err
	}
	pt, ok := ctype.Strip(u.Type).(*ctype.Pointer)
	if !ok {
		return fmt.Errorf("duel: %s is not a pointer (%s); cannot expand with -->", e.text(u.Sym), u.Type)
	}
	x.work, x.visits, x.root, x.visited = x.work[:0], 0, u.Sym, nil
	addr := u.AsUint()
	if !e.validAddr(pt, addr) {
		return nil // NULL or invalid root: empty expansion
	}
	if e.Opts.CycleDetect {
		x.visited = map[uint64]bool{addr: true}
	}
	u.Sym = e.pathRoot(u.Sym)
	x.work = append(x.work, u)
	return nil
}

// expandNext takes the next node off the work list and opens it: it
// pushes the node's name-resolution entry, in which the caller evaluates
// e2 (feeding expandKid) and which it then pops. ok is false when the walk
// is over.
func (e *Env) expandNext(x *expansion) (ok bool, err error) {
	if len(x.work) == 0 {
		return false, nil
	}
	if x.bfs {
		x.cur = x.work[0]
		x.work = x.work[1:]
	} else {
		x.cur = x.work[len(x.work)-1]
		x.work = x.work[:len(x.work)-1]
	}
	x.visits++
	if x.visits > e.Opts.MaxExpand {
		return false, fmt.Errorf("duel: --> expansion of %s exceeded %d nodes (cycle? enable cycle detection)", e.text(x.root), e.Opts.MaxExpand)
	}
	// The node's path was recorded when the node was reached (pathRoot,
	// pathStep); visiting it counts the composition.
	e.countSym()
	// expandRoot and expandKid queue only valid pointers, so the node
	// opens in one type pass, like makeWithEntry.
	w := e.pushWith()
	w.orig = x.cur
	w.openPointee(ctype.Strip(x.cur.Type).(*ctype.Pointer), x.cur.AsUint())
	x.kids = x.kids[:0]
	return true, nil
}

// expandKid adds one value *w of e2, which it loads in place, as a child
// of the node being opened.
func (e *Env) expandKid(x *expansion, w *value.Value) error {
	if err := e.load(w); err != nil {
		return err
	}
	pt, ok := ctype.Strip(w.Type).(*ctype.Pointer)
	if !ok {
		return fmt.Errorf("duel: --> step %s is not a pointer (%s)", e.text(w.Sym), w.Type)
	}
	a := w.AsUint()
	if !e.validAddr(pt, a) {
		return nil
	}
	if x.visited != nil {
		if x.visited[a] {
			return nil
		}
		x.visited[a] = true
	}
	w.Sym = e.pathStep(x.cur.Sym, w.Sym)
	x.kids = append(x.kids, *w)
	return nil
}

// visit queues the children of the node being opened and returns the node,
// the value the walk produces.
func (x *expansion) visit() value.Value {
	if x.bfs {
		x.work = append(x.work, x.kids...)
	} else {
		for i := len(x.kids) - 1; i >= 0; i-- {
			x.work = append(x.work, x.kids[i])
		}
	}
	return x.cur
}

// --- calls ---

// builtin names the built-in a call node invokes, "frame" or "frames",
// unless the target defines a symbol of that name; "" for a target call.
// frame(i) is the frame-scope generator, frames() the number of active
// frames.
func (e *Env) builtin(n *ast.Node) (string, error) {
	c := n.Kids[0]
	if c.Op != ast.OpName || c.Name != "frame" && c.Name != "frames" {
		return "", nil
	}
	if _, ok := e.Ctx.D.GetTargetVariable(c.Name); ok {
		return "", nil
	}
	if c.Name == "frame" && len(n.Kids) != 2 {
		return "", fmt.Errorf("duel: frame() takes exactly one argument")
	}
	return c.Name, nil
}

// frameScope is frame(i) for one value a of i: the scope of that frame.
func (e *Env) frameScope(a value.Value) (value.Value, error) {
	if err := e.load(&a); err != nil {
		return value.Value{}, err
	}
	lvl := int(a.AsInt())
	if lvl < 0 || lvl >= e.Ctx.D.NumFrames() {
		return value.Value{}, fmt.Errorf("duel: no frame %d (%d active)", lvl, e.Ctx.D.NumFrames())
	}
	v := value.Value{FrameScope: int32(lvl + 1)}
	v.Sym = e.atom("frame(" + strconv.Itoa(lvl) + ")")
	return v, nil
}

// callee is one value of a call node's function operand.
type callee struct {
	fv   value.Value
	sig  *ctype.Func
	addr uint64
}

// callee checks that fv is a function. If any argument is a generator, the
// drivers call it for all combinations of argument values, per the paper.
func (e *Env) callee(fv value.Value) (callee, error) {
	rf := fv
	if err := e.load(&rf); err != nil {
		return callee{}, err
	}
	var sig *ctype.Func
	if pt, ok := ctype.Strip(rf.Type).(*ctype.Pointer); ok {
		sig, _ = ctype.Strip(pt.Elem).(*ctype.Func)
	}
	if sig == nil {
		return callee{}, fmt.Errorf("duel: %s is not a function (%s)", e.text(fv.Sym), fv.Type)
	}
	return callee{fv: fv, sig: sig, addr: rf.AsUint()}, nil
}

// callArg is the argument a call passes for one value a of an argument.
func (e *Env) callArg(a value.Value) (value.Value, error) {
	err := e.load(&a)
	return a, err
}

// callOnce performs one target call and emits its result; a function
// that returns void produces no value. It rejects too few arguments before
// it converts any.
func (e *Env) callOnce(c *callee, args []value.Value, emit EmitFn) error {
	if len(args) < len(c.sig.Params) {
		return fmt.Errorf("duel: too few arguments in call to %s (%d < %d)", e.text(c.fv.Sym), len(args), len(c.sig.Params))
	}
	in := make([]dbgif.Value, len(args))
	for i, a := range args {
		if i < len(c.sig.Params) {
			var err error
			if a, err = e.Ctx.Convert(a, c.sig.Params[i]); err != nil {
				return err
			}
		}
		in[i] = dbgif.Value{Type: a.Type, Bytes: a.Bytes()}
	}
	e.Num.Applies++
	out, err := e.Ctx.D.CallTargetFunc(c.addr, in)
	if err != nil {
		if pv, ok := e.containCall(e.callResultSym(c.fv, args), err); ok {
			return emit(pv)
		}
		return fmt.Errorf("duel: call to %s: %w", callSymName(e.text(c.fv.Sym)), err)
	}
	if out.Type == nil || ctype.IsVoid(out.Type) {
		return nil
	}
	res := value.FromBytes(out.Type, out.Bytes)
	res.Sym = e.callResultSym(c.fv, args)
	return emit(res)
}

// callSymName names a callee in error messages even when symbolic values
// are disabled.
func callSymName(s string) string {
	if s == "" {
		return "<target function>"
	}
	return s
}

// --- operator tables ---

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
