package value

import (
	"cmp"
	"fmt"

	"duel/internal/ctype"
	"duel/internal/duel/ast"
	"duel/internal/mem"
)

// EvalError is a general evaluation error with the offending symbolic value.
type EvalError struct {
	Sym string
	Msg string
}

func (e *EvalError) Error() string {
	if e.Sym != "" {
		return fmt.Sprintf("error in %s: %s", e.Sym, e.Msg)
	}
	return e.Msg
}

func (c *Ctx) evalErrf(v Value, format string, args ...any) error {
	return &EvalError{Sym: c.Syms.String(v.Sym), Msg: fmt.Sprintf(format, args...)}
}

// Binary applies a single-valued C binary operator to rvalues a and b
// (the generator-level semantics — which operand sequences to enumerate —
// live in the evaluator; this is the paper's apply()).
func (c *Ctx) Binary(op ast.Op, a, b Value) (Value, error) {
	if a.IsPoison() {
		return a, nil
	}
	if b.IsPoison() {
		return b, nil
	}
	switch op {
	case ast.OpPlus:
		return c.add(a, b)
	case ast.OpMinus:
		return c.sub(a, b)
	case ast.OpMultiply, ast.OpDivide:
		return c.mulDiv(op, a, b)
	case ast.OpModulo:
		return c.intBinary(op, a, b)
	case ast.OpShl, ast.OpShr:
		return c.shift(op, a, b)
	case ast.OpBitAnd, ast.OpBitOr, ast.OpBitXor:
		return c.intBinary(op, a, b)
	case ast.OpLt, ast.OpGt, ast.OpLe, ast.OpGe, ast.OpEq, ast.OpNe,
		ast.OpIfLt, ast.OpIfGt, ast.OpIfLe, ast.OpIfGe, ast.OpIfEq, ast.OpIfNe:
		return c.compare(op, a, b)
	}
	return Value{}, c.evalErrf(a, "unsupported binary operator %s", op)
}

func (c *Ctx) add(a, b Value) (Value, error) {
	at, bt := ctype.Strip(a.Type), ctype.Strip(b.Type)
	if ctype.IsPointer(at) && ctype.IsInteger(bt) {
		return c.ptrOffset(a, b, +1)
	}
	if ctype.IsInteger(at) && ctype.IsPointer(bt) {
		return c.ptrOffset(b, a, +1)
	}
	return c.arith(ast.OpPlus, a, b)
}

func (c *Ctx) sub(a, b Value) (Value, error) {
	at, bt := ctype.Strip(a.Type), ctype.Strip(b.Type)
	if ctype.IsPointer(at) && ctype.IsInteger(bt) {
		return c.ptrOffset(a, b, -1)
	}
	if ctype.IsPointer(at) && ctype.IsPointer(bt) {
		elem, _ := ctype.PointerElem(at)
		size := int64(elem.Size())
		if size == 0 {
			size = 1
		}
		diff := (a.AsInt() - b.AsInt()) / size
		return MakeInt(c.Arch.Long, diff), nil
	}
	return c.arith(ast.OpMinus, a, b)
}

func (c *Ctx) ptrOffset(p, i Value, sign int64) (Value, error) {
	elem, _ := ctype.PointerElem(p.Type)
	size := int64(elem.Size())
	if size == 0 {
		size = 1
	}
	addr := uint64(p.AsInt() + sign*i.AsInt()*size)
	return MakePtr(ctype.Strip(p.Type), addr), nil
}

func (c *Ctx) mulDiv(op ast.Op, a, b Value) (Value, error) {
	return c.arith(op, a, b)
}

// sameWideInt returns the type of a and b when both have the same type, an
// integer type of rank int or above. The usual arithmetic conversions are the
// identity there, so arith and compare skip them.
func sameWideInt(a, b Value) (*ctype.Basic, bool) {
	if a.Type != b.Type {
		return nil, false
	}
	t, ok := ctype.Strip(a.Type).(*ctype.Basic)
	if !ok {
		return nil, false
	}
	k := t.Kind() // the kinds from int to unsigned long long are contiguous
	return t, ctype.KindInt <= k && k <= ctype.KindULongLong
}

// arith applies +, -, *, / under the usual arithmetic conversions.
func (c *Ctx) arith(op ast.Op, a, b Value) (Value, error) {
	if t, ok := sameWideInt(a, b); ok {
		return c.intArith(op, t, a, b)
	}
	t, err := c.UsualArith(a, b)
	if err != nil {
		return Value{}, err
	}
	if ctype.IsFloat(t) {
		x, y := a.AsFloat(), b.AsFloat()
		var r float64
		switch op {
		case ast.OpPlus:
			r = x + y
		case ast.OpMinus:
			r = x - y
		case ast.OpMultiply:
			r = x * y
		case ast.OpDivide:
			if y == 0 {
				return Value{}, c.evalErrf(b, "division by zero")
			}
			r = x / y
		}
		return MakeFloat(t, r), nil
	}
	ca, err := c.Convert(a, t)
	if err != nil {
		return Value{}, err
	}
	cb, err := c.Convert(b, t)
	if err != nil {
		return Value{}, err
	}
	return c.intArith(op, t, ca, cb)
}

// intArith applies +, -, *, / to a and b, both of integer type t.
func (c *Ctx) intArith(op ast.Op, t ctype.Type, a, b Value) (Value, error) {
	x, y := a.AsUint(), b.AsUint()
	var r uint64
	switch op {
	case ast.OpPlus:
		r = x + y
	case ast.OpMinus:
		r = x - y
	case ast.OpMultiply:
		r = x * y
	case ast.OpDivide:
		if y == 0 {
			return Value{}, c.evalErrf(b, "division by zero")
		}
		if ctype.IsSigned(t) {
			r = uint64(int64(signExt(x, t.Size())) / signExt(y, t.Size()))
		} else {
			r = x / y
		}
	}
	return MakeInt(t, int64(r)), nil
}

// intBinary applies %, &, |, ^ (integer-only operators).
func (c *Ctx) intBinary(op ast.Op, a, b Value) (Value, error) {
	at, bt := ctype.Strip(a.Type), ctype.Strip(b.Type)
	if !ctype.IsInteger(at) || !ctype.IsInteger(bt) {
		return Value{}, c.evalErrf(a, "operator %s requires integer operands (%s, %s)", op.Symbol(), a.Type, b.Type)
	}
	t, err := c.UsualArith(a, b)
	if err != nil {
		return Value{}, err
	}
	ca, _ := c.Convert(a, t)
	cb, _ := c.Convert(b, t)
	x, y := ca.AsUint(), cb.AsUint()
	var r uint64
	switch op {
	case ast.OpModulo:
		if y == 0 {
			return Value{}, c.evalErrf(b, "division by zero")
		}
		if ctype.IsSigned(t) {
			r = uint64(signExt(x, t.Size()) % signExt(y, t.Size()))
		} else {
			r = x % y
		}
	case ast.OpBitAnd:
		r = x & y
	case ast.OpBitOr:
		r = x | y
	case ast.OpBitXor:
		r = x ^ y
	}
	return MakeInt(t, int64(r)), nil
}

func (c *Ctx) shift(op ast.Op, a, b Value) (Value, error) {
	at, bt := ctype.Strip(a.Type), ctype.Strip(b.Type)
	if !ctype.IsInteger(at) || !ctype.IsInteger(bt) {
		return Value{}, c.evalErrf(a, "shift requires integer operands")
	}
	t := c.Arch.Promote(at)
	ca, _ := c.Convert(a, t)
	n := b.AsInt()
	if n < 0 || n >= int64(t.Size()*8) {
		return Value{}, c.evalErrf(b, "shift count %d out of range for %s", n, t)
	}
	x := ca.AsUint()
	var r uint64
	if op == ast.OpShl {
		r = x << uint(n)
	} else {
		if ctype.IsSigned(t) {
			r = uint64(signExt(x, t.Size()) >> uint(n))
		} else {
			r = x >> uint(n)
		}
	}
	return MakeInt(t, int64(r)), nil
}

// compare applies the C comparisons and DUEL's ?-comparisons. For the C
// forms it returns int 0/1. For the ?-forms it returns int 1/0 as well; the
// evaluator inspects the truth and yields the left operand, per the paper
// ("e1 >? e2 returns e1 if e1 is greater than e2 and nothing otherwise").
func (c *Ctx) compare(op ast.Op, a, b Value) (Value, error) {
	if t, ok := sameWideInt(a, b); ok {
		return c.cmpResult(op, cmpInts(ctype.IsSigned(t), t.Size(), a.AsUint(), b.AsUint())), nil
	}
	at, bt := ctype.Strip(a.Type), ctype.Strip(b.Type)
	var order int // -1, 0, +1
	switch {
	case ctype.IsArithmetic(at) && ctype.IsArithmetic(bt):
		t, err := c.UsualArith(a, b)
		if err != nil {
			return Value{}, err
		}
		if ctype.IsFloat(t) {
			x, y := a.AsFloat(), b.AsFloat()
			switch {
			case x < y:
				order = -1
			case x > y:
				order = 1
			}
		} else {
			ca, _ := c.Convert(a, t)
			cb, _ := c.Convert(b, t)
			order = cmpInts(ctype.IsSigned(t), t.Size(), ca.AsUint(), cb.AsUint())
		}
	case (ctype.IsPointer(at) || ctype.IsInteger(at)) && (ctype.IsPointer(bt) || ctype.IsInteger(bt)):
		// Pointer comparisons, including against 0 (NULL).
		order = cmp.Compare(a.AsUint(), b.AsUint())
	default:
		return Value{}, c.evalErrf(a, "cannot compare %s with %s", a.Type, b.Type)
	}
	return c.cmpResult(op, order), nil
}

// cmpInts compares x and y as integers of the given signedness and byte
// size.
func cmpInts(signed bool, size int, x, y uint64) int {
	if signed {
		return cmp.Compare(signExt(x, size), signExt(y, size))
	}
	return cmp.Compare(x, y)
}

// cmpResult is the int 1 or 0 that comparison op yields for order, the
// three-way result of comparing its operands.
func (c *Ctx) cmpResult(op ast.Op, order int) Value {
	var truth bool
	switch op {
	case ast.OpLt, ast.OpIfLt:
		truth = order < 0
	case ast.OpGt, ast.OpIfGt:
		truth = order > 0
	case ast.OpLe, ast.OpIfLe:
		truth = order <= 0
	case ast.OpGe, ast.OpIfGe:
		truth = order >= 0
	case ast.OpEq, ast.OpIfEq:
		truth = order == 0
	case ast.OpNe, ast.OpIfNe:
		truth = order != 0
	}
	var u uint64
	if truth {
		u = 1
	}
	return Value{Type: c.Arch.Int, Addr: u, size: uint8(c.Arch.Int.Size())}
}

func signExt(u uint64, size int) int64 {
	shift := uint(64 - 8*size)
	return int64(u<<shift) >> shift
}

// UsualArith lifts ctype's usual arithmetic conversions to values.
func (c *Ctx) UsualArith(a, b Value) (ctype.Type, error) {
	t, err := c.Arch.UsualArith(a.Type, b.Type)
	if err != nil {
		return nil, c.evalErrf(a, "%v", err)
	}
	return t, nil
}

// Unary applies a single-valued C unary operator to rvalue v.
func (c *Ctx) Unary(op ast.Op, v Value) (Value, error) {
	if v.IsPoison() {
		return v, nil
	}
	st := ctype.Strip(v.Type)
	switch op {
	case ast.OpNeg:
		if !ctype.IsArithmetic(st) {
			return Value{}, c.evalErrf(v, "unary - requires an arithmetic operand, not %s", v.Type)
		}
		if ctype.IsFloat(st) {
			return MakeFloat(st, -v.AsFloat()), nil
		}
		t := c.Arch.Promote(st)
		cv, _ := c.Convert(v, t)
		return MakeInt(t, -cv.AsInt()), nil
	case ast.OpPos:
		if !ctype.IsArithmetic(st) {
			return Value{}, c.evalErrf(v, "unary + requires an arithmetic operand, not %s", v.Type)
		}
		if ctype.IsFloat(st) {
			return v, nil
		}
		t := c.Arch.Promote(st)
		return c.Convert(v, t)
	case ast.OpBitNot:
		if !ctype.IsInteger(st) {
			return Value{}, c.evalErrf(v, "~ requires an integer operand, not %s", v.Type)
		}
		t := c.Arch.Promote(st)
		cv, _ := c.Convert(v, t)
		return MakeInt(t, ^cv.AsInt()), nil
	case ast.OpNot:
		ok, err := c.Truth(v)
		if err != nil {
			return Value{}, err
		}
		if ok {
			return MakeInt(c.Arch.Int, 0), nil
		}
		return MakeInt(c.Arch.Int, 1), nil
	}
	return Value{}, c.evalErrf(v, "unsupported unary operator %s", op)
}

// Deref dereferences pointer rvalue p, producing an lvalue of the pointee.
// Dereferencing a function pointer yields the function designator.
func (c *Ctx) Deref(p Value) (Value, error) {
	if p.IsPoison() {
		return p, nil
	}
	st := ctype.Strip(p.Type)
	pt, ok := st.(*ctype.Pointer)
	if !ok {
		return Value{}, c.evalErrf(p, "cannot dereference non-pointer type %s", p.Type)
	}
	addr := p.AsUint()
	out := Lvalue(pt.Elem, addr)
	out.Sym = p.Sym
	return out, nil
}

// Index applies C's e1[e2]: one operand must be a pointer (arrays have
// already decayed), the other an integer.
func (c *Ctx) Index(base, idx Value) (Value, error) {
	if p, ok := PoisonOf(base, idx); ok {
		return p, nil
	}
	bt, it := ctype.Strip(base.Type), ctype.Strip(idx.Type)
	if ctype.IsInteger(bt) && ctype.IsPointer(it) {
		base, idx = idx, base
		bt = it
	}
	if !ctype.IsPointer(bt) {
		return Value{}, c.evalErrf(base, "cannot index type %s", base.Type)
	}
	if !ctype.IsInteger(ctype.Strip(idx.Type)) {
		return Value{}, c.evalErrf(idx, "array subscript is not an integer (%s)", idx.Type)
	}
	elem, _ := ctype.PointerElem(bt)
	size := int64(elem.Size())
	if size == 0 {
		return Value{}, c.evalErrf(base, "cannot index pointer to incomplete type %s", base.Type)
	}
	addr := uint64(base.AsInt() + idx.AsInt()*size)
	return Lvalue(elem, addr), nil
}

// AddrOf takes the address of an lvalue (or function designator).
func (c *Ctx) AddrOf(v Value) (Value, error) {
	if v.IsPoison() {
		return v, nil
	}
	st := ctype.Strip(v.Type)
	if !v.IsLvalue {
		return Value{}, c.typeErrf(v, "cannot take the address of an rvalue")
	}
	if v.BitWidth > 0 {
		return Value{}, c.typeErrf(v, "cannot take the address of a bitfield")
	}
	return MakePtr(c.Arch.Ptr(st), v.Addr), nil
}

// Field accesses member name of a struct or union value. Lvalue structs
// yield lvalue fields (including bitfields); rvalue structs yield rvalue
// fields extracted from the bytes.
func (c *Ctx) Field(v Value, name string) (Value, error) {
	if v.IsPoison() {
		return v, nil
	}
	st, ok := ctype.Strip(v.Type).(*ctype.Struct)
	if !ok {
		return Value{}, c.evalErrf(v, "request for member %q in non-struct type %s", name, v.Type)
	}
	if st.Incomplete {
		return Value{}, c.evalErrf(v, "struct %s is incomplete", st.Tag)
	}
	f, ok := st.Field(name)
	if !ok {
		return Value{}, c.evalErrf(v, "%s has no member named %q", v.Type, name)
	}
	if v.IsLvalue {
		return MemberLvalue(v.Addr, f), nil
	}
	size := ctype.Strip(f.Type).Size()
	vb := v.Bytes()
	if f.Off+size > len(vb) {
		return Value{}, c.evalErrf(v, "struct rvalue too short for member %q", name)
	}
	b := vb[f.Off : f.Off+size]
	if f.BitWidth > 0 {
		u := mem.DecodeUint(b) >> uint(f.BitOff)
		mask := uint64(1)<<uint(f.BitWidth) - 1
		u &= mask
		if ctype.IsSigned(f.Type) && u&(1<<uint(f.BitWidth-1)) != 0 {
			u |= ^mask
		}
		b = mem.EncodeUint(u, size)
	}
	return FromBytes(f.Type, b), nil
}

// MemberLvalue returns the lvalue of member f of the struct or union at
// addr, a bitfield included.
func MemberLvalue(addr uint64, f *ctype.Field) Value {
	return Value{Type: f.Type, IsLvalue: true, Addr: addr + uint64(f.Off), BitOff: int8(f.BitOff), BitWidth: int8(f.BitWidth)}
}

// HasField reports whether v is a struct/union with a member called name.
func HasField(v Value, name string) bool {
	st, ok := ctype.Strip(v.Type).(*ctype.Struct)
	if !ok {
		return false
	}
	_, ok = st.Field(name)
	return ok
}
