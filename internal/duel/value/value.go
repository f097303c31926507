// Package value implements DUEL's C-compatible value engine: the Value
// representation (type + actual value + symbolic value, exactly the triple
// the paper describes), lvalue/rvalue handling including bitfields, the C
// conversion rules, and the operator application functions ("about another
// 1200 lines" in the original implementation).
//
// All target memory access goes through the instrumented memio.Accessor
// over the narrow debugger interface (internal/dbgif); the engine has no
// other channel to the debuggee.
package value

import (
	"errors"
	"fmt"

	"duel/internal/ctype"
	"duel/internal/dbgif"
	"duel/internal/mem"
	"duel/internal/memio"
)

// Symbolic precedence levels, used to parenthesize symbolic output
// correctly. They mirror the parser's binding powers; Atom marks leaf-like
// symbolic values (names, constants, the current value of a generator).
const (
	PrecImply    = 3
	PrecAssign   = 4
	PrecCond     = 5
	PrecOrOr     = 6
	PrecAndAnd   = 7
	PrecBitOr    = 8
	PrecBitXor   = 9
	PrecBitAnd   = 10
	PrecEquality = 11
	PrecRelation = 12
	PrecShift    = 13
	PrecAdditive = 14
	PrecMultip   = 15
	PrecRange    = 16
	PrecUnary    = 17
	PrecPostfix  = 18
	PrecAtom     = 100
)

// Sym is a symbolic expression: the derivation string of a value plus the
// precedence of its outermost operator, so that later compositions can add
// parentheses exactly when needed.
type Sym struct {
	S    string
	Prec int
}

// Atom returns a leaf symbolic value.
func Atom(s string) Sym { return Sym{S: s, Prec: PrecAtom} }

// At returns the symbolic string parenthesized if its precedence is below
// min.
func (s Sym) At(min int) string {
	if s.Prec < min {
		return "(" + s.S + ")"
	}
	return s.S
}

// Binary composes a binary symbolic expression at precedence prec
// (left-associative: the right operand needs parens at equal precedence).
func BinarySym(a Sym, op string, b Sym, prec int) Sym {
	return Sym{S: a.At(prec) + op + b.At(prec+1), Prec: prec}
}

// Value is a DUEL value: a C type, an actual value (an rvalue's bytes in
// target representation, or an lvalue's target address, possibly a
// bitfield), and a symbolic value recording its derivation.
//
// The struct is passed and yielded by value on every generator step, so
// its size is the per-element copy cost: the small fields share the one
// word after Bytes (TestValueSize pins the total at 96 bytes).
type Value struct {
	Type ctype.Type

	// Lvalue state: the target address (IsLvalue and the bitfield
	// position are in the packed word below).
	Addr uint64

	// Rvalue state (when !IsLvalue): little-endian target bytes.
	Bytes []byte

	IsLvalue bool
	BitOff   int8 // bitfield position within the addressed unit (< 64)
	BitWidth int8 // 0 = not a bitfield; at most 64 (ctype checks the width)

	// FrameScope marks the special value produced by frame(i): a scope
	// handle whose fields are the frame's locals (extension). It is
	// bounded by the debugger's NumFrames.
	FrameScope int32 // frame level + 1; 0 = not a frame scope

	// Err marks an error value (Options.Eval.ErrorValues containment, an
	// extension): the element could not be produced because of a target
	// fault, and Err says why. Sym still carries the derivation, so the
	// display layer can print the paper-style symbolic diagnosis
	// ("x[3]->p: unmapped address 0x16820") while the enclosing generator
	// keeps enumerating. Error values poison operators: any operation on
	// one yields it unchanged.
	Err error

	Sym Sym
}

// Poison returns an error value carrying sym's derivation and err.
func Poison(sym Sym, err error) Value { return Value{Sym: sym, Err: err} }

// IsPoison reports whether v is an error value.
func (v Value) IsPoison() bool { return v.Err != nil }

// PoisonOf returns the first error value among vs, if any.
func PoisonOf(vs ...Value) (Value, bool) {
	for _, v := range vs {
		if v.IsPoison() {
			return v, true
		}
	}
	return Value{}, false
}

// ErrText returns the concise diagnosis of an error value, e.g.
// "unmapped address 0x16820" or "transient fault at 0x1000".
func (v Value) ErrText() string {
	if v.Err == nil {
		return ""
	}
	if errors.Is(v.Err, dbgif.ErrReadOnlyTarget) {
		return "read-only target"
	}
	var f *memio.Fault
	if errors.As(v.Err, &f) {
		switch f.Kind {
		case memio.KindUnmapped:
			return fmt.Sprintf("unmapped address 0x%x", f.Addr)
		case memio.KindShort:
			return fmt.Sprintf("short %s at 0x%x", f.Op, f.Addr)
		case memio.KindTransient:
			return fmt.Sprintf("transient fault at 0x%x", f.Addr)
		}
		return f.Error()
	}
	var me *MemError
	if errors.As(v.Err, &me) {
		// An illegal reference with no underlying typed fault: a null or
		// garbage pointer (the paper's 0x16820 case).
		return fmt.Sprintf("unmapped address 0x%x", me.Addr)
	}
	return v.Err.Error()
}

// WithSym returns a copy of v carrying the given symbolic value.
func (v Value) WithSym(s Sym) Value {
	v.Sym = s
	return v
}

// Ctx carries what the value engine needs: the target's data model and the
// memory accessor over the debugger interface. Routing D through
// *memio.Accessor (rather than a raw dbgif.Debugger) is what guarantees that
// every target read and write of the engine is cached, counted and
// fault-typed in one place.
type Ctx struct {
	Arch *ctype.Arch
	D    *memio.Accessor
}

// MemError reports an invalid target access, carrying the offending
// operand's symbolic value as in the paper's example:
//
//	Illegal memory reference in x of x->y: ptr[48] = lvalue 0x16820.
type MemError struct {
	Context string // enclosing expression, e.g. "x->y"
	Sym     string // offending operand's symbolic value
	Addr    uint64
	Err     error
}

func (e *MemError) Error() string {
	if e.Context != "" {
		return fmt.Sprintf("Illegal memory reference in %s of %s: %s = lvalue 0x%x", e.Sym, e.Context, e.Sym, e.Addr)
	}
	return fmt.Sprintf("Illegal memory reference: %s = lvalue 0x%x", e.Sym, e.Addr)
}

func (e *MemError) Unwrap() error { return e.Err }

// TypeError reports a type mismatch, with the symbolic value of the
// offending operand.
type TypeError struct {
	Sym string
	Msg string
}

func (e *TypeError) Error() string {
	if e.Sym != "" {
		return fmt.Sprintf("type error in %s: %s", e.Sym, e.Msg)
	}
	return "type error: " + e.Msg
}

func typeErrf(v Value, format string, args ...any) error {
	return &TypeError{Sym: v.Sym.S, Msg: fmt.Sprintf(format, args...)}
}

// --- constructors ---

// MakeInt returns an rvalue of integer (or pointer-sized) type t holding v.
func MakeInt(t ctype.Type, v int64) Value {
	return Value{Type: t, Bytes: mem.EncodeUint(uint64(v), ctype.Strip(t).Size())}
}

// MakeFloat returns an rvalue of floating type t holding v.
func MakeFloat(t ctype.Type, v float64) Value {
	return Value{Type: t, Bytes: mem.EncodeFloat(v, ctype.Strip(t).Size())}
}

// MakePtr returns an rvalue pointer of type t to addr.
func MakePtr(t ctype.Type, addr uint64) Value {
	return Value{Type: t, Bytes: mem.EncodeUint(addr, ctype.Strip(t).Size())}
}

// Lvalue returns an lvalue of type t at addr.
func Lvalue(t ctype.Type, addr uint64) Value {
	return Value{Type: t, IsLvalue: true, Addr: addr}
}

// --- scalar extraction (rvalues only) ---

// AsInt returns the value as a sign-extended integer. The value must be an
// integer, enum or pointer rvalue.
func (v Value) AsInt() int64 {
	st := ctype.Strip(v.Type)
	if ctype.IsSigned(st) {
		return mem.DecodeInt(v.Bytes)
	}
	return int64(mem.DecodeUint(v.Bytes))
}

// AsUint returns the value as an unsigned integer.
func (v Value) AsUint() uint64 { return mem.DecodeUint(v.Bytes) }

// AsFloat returns the value as a float; integers are converted.
func (v Value) AsFloat() float64 {
	st := ctype.Strip(v.Type)
	if ctype.IsFloat(st) {
		return mem.DecodeFloat(v.Bytes)
	}
	if ctype.IsSigned(st) {
		return float64(mem.DecodeInt(v.Bytes))
	}
	return float64(mem.DecodeUint(v.Bytes))
}

// IsZero reports whether a scalar rvalue is zero.
func (v Value) IsZero() bool {
	st := ctype.Strip(v.Type)
	if ctype.IsFloat(st) {
		return mem.DecodeFloat(v.Bytes) == 0
	}
	for _, b := range v.Bytes {
		if b != 0 {
			return false
		}
	}
	return true
}

// --- lvalue conversion ---

// Rval converts v to an rvalue: lvalues are loaded from target memory
// (bitfields are extracted and extended), arrays decay to pointers to their
// first element, and function designators decay to their entry address.
func (c *Ctx) Rval(v Value) (Value, error) {
	if v.IsPoison() {
		return v, nil
	}
	st := ctype.Strip(v.Type)
	if a, ok := st.(*ctype.Array); ok {
		if !v.IsLvalue {
			return Value{}, typeErrf(v, "array rvalue cannot decay")
		}
		out := MakePtr(c.Arch.Ptr(a.Elem), v.Addr)
		out.Sym = v.Sym
		return out, nil
	}
	if _, ok := st.(*ctype.Func); ok {
		out := MakePtr(c.Arch.Ptr(st), v.Addr)
		out.Sym = v.Sym
		return out, nil
	}
	if !v.IsLvalue {
		return v, nil
	}
	size := st.Size()
	b, err := c.D.GetTargetBytes(v.Addr, size)
	if err != nil {
		return Value{}, &MemError{Sym: v.Sym.S, Addr: v.Addr, Err: err}
	}
	if v.BitWidth > 0 {
		u := mem.DecodeUint(b)
		u >>= uint(v.BitOff)
		mask := uint64(1)<<uint(v.BitWidth) - 1
		u &= mask
		if ctype.IsSigned(st) && u&(1<<uint(v.BitWidth-1)) != 0 {
			u |= ^mask
		}
		b = mem.EncodeUint(u, size)
	}
	out := Value{Type: v.Type, Bytes: b, Sym: v.Sym}
	return out, nil
}

// Store assigns rvalue src into lvalue dst (with conversion to dst's type),
// handling bitfields with read-modify-write.
func (c *Ctx) Store(dst, src Value) error {
	if p, ok := PoisonOf(dst, src); ok {
		return p.Err
	}
	if !dst.IsLvalue {
		return typeErrf(dst, "not an lvalue")
	}
	st := ctype.Strip(dst.Type)
	conv, err := c.Convert(src, dst.Type)
	if err != nil {
		return err
	}
	if dst.BitWidth > 0 {
		size := st.Size()
		cur, err := c.D.GetTargetBytes(dst.Addr, size)
		if err != nil {
			return &MemError{Sym: dst.Sym.S, Addr: dst.Addr, Err: err}
		}
		u := mem.DecodeUint(cur)
		mask := (uint64(1)<<uint(dst.BitWidth) - 1) << uint(dst.BitOff)
		u = u&^mask | (conv.AsUint()<<uint(dst.BitOff))&mask
		if err := c.D.PutTargetBytes(dst.Addr, mem.EncodeUint(u, size)); err != nil {
			return &MemError{Sym: dst.Sym.S, Addr: dst.Addr, Err: err}
		}
		return nil
	}
	if err := c.D.PutTargetBytes(dst.Addr, conv.Bytes); err != nil {
		return &MemError{Sym: dst.Sym.S, Addr: dst.Addr, Err: err}
	}
	return nil
}

// --- conversions ---

// Convert converts rvalue v to type t following C's conversion rules.
// Struct-to-same-struct passes through; anything else requires scalars.
func (c *Ctx) Convert(v Value, t ctype.Type) (Value, error) {
	if v.IsPoison() {
		return v, nil
	}
	from := ctype.Strip(v.Type)
	to := ctype.Strip(t)
	if from == to || ctype.Equal(from, to) {
		out := v
		out.Type = t
		return out, nil
	}
	switch {
	case ctype.IsInteger(to) || to.Kind() == ctype.KindPointer:
		var u uint64
		switch {
		case ctype.IsFloat(from):
			u = uint64(int64(mem.DecodeFloat(v.Bytes)))
		case ctype.IsInteger(from), from.Kind() == ctype.KindPointer:
			if ctype.IsSigned(from) {
				u = uint64(mem.DecodeInt(v.Bytes))
			} else {
				u = mem.DecodeUint(v.Bytes)
			}
		case from.Kind() == ctype.KindFunc:
			u = mem.DecodeUint(v.Bytes)
		default:
			return Value{}, typeErrf(v, "cannot convert %s to %s", v.Type, t)
		}
		out := Value{Type: t, Bytes: mem.EncodeUint(u, to.Size()), Sym: v.Sym}
		return out, nil
	case ctype.IsFloat(to):
		if !ctype.IsArithmetic(from) {
			return Value{}, typeErrf(v, "cannot convert %s to %s", v.Type, t)
		}
		out := Value{Type: t, Bytes: mem.EncodeFloat(v.AsFloat(), to.Size()), Sym: v.Sym}
		return out, nil
	case to.Kind() == ctype.KindVoid:
		return Value{Type: t, Bytes: nil, Sym: v.Sym}, nil
	case (to.Kind() == ctype.KindStruct || to.Kind() == ctype.KindUnion) && from == to:
		out := v
		out.Type = t
		return out, nil
	}
	return Value{}, typeErrf(v, "cannot convert %s to %s", v.Type, t)
}

// Truth reports whether scalar rvalue v is non-zero, giving C's truth test.
func (c *Ctx) Truth(v Value) (bool, error) {
	if v.IsPoison() {
		return false, nil
	}
	st := ctype.Strip(v.Type)
	if !ctype.IsScalar(st) {
		return false, typeErrf(v, "%s is not a scalar", v.Type)
	}
	return !v.IsZero(), nil
}
