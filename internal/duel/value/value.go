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
	"math"
	"unsafe"

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

// Value is a DUEL value: a C type, an actual value (an rvalue's bytes in
// target representation, or an lvalue's target address, possibly a
// bitfield), and a symbolic value recording its derivation.
//
// The struct is passed and yielded by value on every generator step, so
// its size is the per-element copy cost. amd64 Go copies structs over 64
// bytes with DUFFCOPY; the layout is 56 bytes and TestValueSize keeps it at
// 64 or less. An lvalue address and a scalar rvalue never coexist, so they
// share the Addr word.
type Value struct {
	Type ctype.Type

	// Addr is an lvalue's target address. An rvalue of at most 8 bytes
	// keeps its bytes here instead (little-endian, zero-extended), and a
	// larger rvalue the length of its out-of-line bytes.
	Addr uint64

	ext *byte  // a larger rvalue's bytes, Addr of them
	err *error // see Err

	Sym Sym

	IsLvalue bool
	BitOff   int8  // bitfield position within the addressed unit (< 64)
	BitWidth int8  // 0 = not a bitfield; at most 64 (ctype checks the width)
	size     uint8 // byte count of an inline rvalue (<= 8)

	// FrameScope marks the special value produced by frame(i): a scope
	// handle whose fields are the frame's locals (extension). It is
	// bounded by the debugger's NumFrames.
	FrameScope int32 // frame level + 1; 0 = not a frame scope
}

// Poison returns an error value carrying sym's derivation and err
// (Options.Eval.ErrorValues containment, an extension): the element could
// not be produced because of a target fault, and err says why. The
// derivation lets the display layer print the paper-style symbolic
// diagnosis ("x[3]->p: unmapped address 0x16820") while the enclosing
// generator keeps enumerating. Error values poison operators: any
// operation on one yields it unchanged.
func Poison(sym Sym, err error) Value { return Value{Sym: sym, err: &err} }

// Err returns the fault of an error value, nil for any other value.
func (v Value) Err() error {
	if v.err == nil {
		return nil
	}
	return *v.err
}

// IsPoison reports whether v is an error value.
func (v Value) IsPoison() bool { return v.err != nil }

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
	err := v.Err()
	if err == nil {
		return ""
	}
	if errors.Is(err, dbgif.ErrReadOnlyTarget) {
		return "read-only target"
	}
	var f *memio.Fault
	if errors.As(err, &f) {
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
	if errors.As(err, &me) {
		// An illegal reference with no underlying typed fault: a null or
		// garbage pointer (the paper's 0x16820 case).
		return fmt.Sprintf("unmapped address 0x%x", me.Addr)
	}
	return err.Error()
}

// WithSym returns a copy of v carrying the given symbolic value.
func (v Value) WithSym(s Sym) Value {
	v.Sym = s
	return v
}

// Bytes returns an rvalue's bytes in target representation (nil for an
// lvalue). The result may be shared: callers must not modify it.
func (v Value) Bytes() []byte {
	switch {
	case v.IsLvalue:
		return nil
	case v.ext != nil:
		return unsafe.Slice(v.ext, v.Addr)
	case v.size == 0:
		return nil
	}
	return mem.EncodeUint(v.Addr, int(v.size))
}

// FromBytes returns an rvalue of type t holding b, which it may keep.
func FromBytes(t ctype.Type, b []byte) Value {
	v := Value{Type: t}
	v.setBytes(b)
	return v
}

// setBytes makes v's actual value the rvalue bytes b, which it may keep.
func (v *Value) setBytes(b []byte) {
	if len(b) <= 8 {
		v.Addr, v.ext, v.size = mem.DecodeUint(b), nil, uint8(len(b))
		return
	}
	v.Addr, v.ext, v.size = uint64(len(b)), unsafe.SliceData(b), 0
}

// Ctx carries what the value engine needs: the target's data model, the
// memory accessor over the debugger interface, and the store the symbolic
// values of the current evaluation live in. Routing D through
// *memio.Accessor (rather than a raw dbgif.Debugger) is what guarantees that
// every target read and write of the engine is cached, counted and
// fault-typed in one place.
//
// A Ctx is driven by one evaluation at a time: scratch, the buffer a load
// of at most 8 bytes is fetched into, is its own.
type Ctx struct {
	Arch *ctype.Arch
	D    *memio.Accessor
	Syms *SymStore

	scratch [8]byte
}

// fetch reads size bytes at addr: into the Ctx's scratch when they fit
// (valid until the next fetch), else into a slice of their own.
func (c *Ctx) fetch(addr uint64, size int) ([]byte, error) {
	var b []byte
	if size <= len(c.scratch) {
		b = c.scratch[:size]
	} else {
		b = make([]byte, size)
	}
	return b, c.D.FetchTargetBytes(addr, b)
}

// MemError reports an invalid target access, carrying the offending
// operand's symbolic value as in the paper's example:
//
//	Illegal memory reference in x of x->y: ptr[48] = lvalue 0x16820.
//
// A fetch that kept faulting transiently until memio's retries ran out is
// not a bad pointer, and says so:
//
//	Transient target fault after 4 attempts: x[1] = lvalue 0x1004
type MemError struct {
	Context string // enclosing expression, e.g. "x->y"
	Sym     string // offending operand's symbolic value
	Addr    uint64
	Err     error
}

func (e *MemError) Error() string {
	what := "Illegal memory reference"
	var re *memio.RetryExhaustedError
	if errors.As(e.Err, &re) {
		what = fmt.Sprintf("Transient target fault after %d attempts", re.Attempts)
	}
	if e.Context != "" {
		return fmt.Sprintf("%s in %s of %s: %s = lvalue 0x%x", what, e.Sym, e.Context, e.Sym, e.Addr)
	}
	return fmt.Sprintf("%s: %s = lvalue 0x%x", what, e.Sym, e.Addr)
}

func (e *MemError) Unwrap() error { return e.Err }

// memErr reports a faulting access to v's storage.
func (c *Ctx) memErr(v Value, err error) error {
	return &MemError{Sym: c.Syms.String(v.Sym), Addr: v.Addr, Err: err}
}

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

func (c *Ctx) typeErrf(v Value, format string, args ...any) error {
	return &TypeError{Sym: c.Syms.String(v.Sym), Msg: fmt.Sprintf(format, args...)}
}

// --- constructors ---

// MakeInt returns an rvalue of integer (or pointer-sized) type t holding v.
func MakeInt(t ctype.Type, v int64) Value {
	size := ctype.Strip(t).Size()
	if size > 8 {
		return FromBytes(t, mem.EncodeUint(uint64(v), size))
	}
	u := uint64(v)
	if size < 8 {
		u &= 1<<(8*uint(size)) - 1
	}
	return Value{Type: t, Addr: u, size: uint8(size)}
}

// MakeFloat returns an rvalue of floating type t holding v.
func MakeFloat(t ctype.Type, v float64) Value {
	switch size := ctype.Strip(t).Size(); size {
	case 4:
		return Value{Type: t, Addr: uint64(math.Float32bits(float32(v))), size: 4}
	case 8:
		return Value{Type: t, Addr: math.Float64bits(v), size: 8}
	default:
		return FromBytes(t, mem.EncodeFloat(v, size))
	}
}

// MakePtr returns an rvalue pointer of type t to addr.
func MakePtr(t ctype.Type, addr uint64) Value { return MakeInt(t, int64(addr)) }

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
		if v.ext != nil {
			return mem.DecodeInt(v.Bytes())
		}
		return signExt(v.Addr, int(v.size))
	}
	return int64(v.AsUint())
}

// AsUint returns the value as an unsigned integer.
func (v Value) AsUint() uint64 {
	if v.ext != nil {
		return mem.DecodeUint(v.Bytes())
	}
	if v.IsLvalue {
		return 0
	}
	return v.Addr
}

// floatBits decodes a floating rvalue of 4 or 8 bytes.
func (v Value) floatBits() float64 {
	if v.ext == nil {
		switch v.size {
		case 4:
			return float64(math.Float32frombits(uint32(v.Addr)))
		case 8:
			return math.Float64frombits(v.Addr)
		}
	}
	return mem.DecodeFloat(v.Bytes())
}

// AsFloat returns the value as a float; integers are converted.
func (v Value) AsFloat() float64 {
	st := ctype.Strip(v.Type)
	if ctype.IsFloat(st) {
		return v.floatBits()
	}
	if ctype.IsSigned(st) {
		return float64(v.AsInt())
	}
	return float64(v.AsUint())
}

// IsZero reports whether a scalar rvalue is zero.
func (v Value) IsZero() bool {
	st := ctype.Strip(v.Type)
	if ctype.IsFloat(st) {
		return v.floatBits() == 0
	}
	if v.ext == nil {
		return v.AsUint() == 0
	}
	for _, b := range v.Bytes() {
		if b != 0 {
			return false
		}
	}
	return true
}

// --- lvalue conversion ---

// Load converts *v to its rvalue in place: an lvalue is loaded from target
// memory (a bitfield is extracted and extended), an array decays to a
// pointer to its first element, and a function designator decays to its
// entry address. The symbolic value is kept. On error *v is unchanged.
//
// A load runs once per element of most queries, so it sets the fields the
// conversion changes instead of storing a whole Value.
func (c *Ctx) Load(v *Value) error {
	if v.err != nil {
		return nil
	}
	st := ctype.Strip(v.Type)
	switch t := st.(type) {
	case *ctype.Array:
		if !v.IsLvalue {
			return c.typeErrf(*v, "array rvalue cannot decay")
		}
		*v = MakePtr(c.Arch.Ptr(t.Elem), v.Addr).WithSym(v.Sym)
		return nil
	case *ctype.Func:
		*v = MakePtr(c.Arch.Ptr(st), v.Addr).WithSym(v.Sym)
		return nil
	}
	if !v.IsLvalue {
		return nil
	}
	size := st.Size()
	b, err := c.fetch(v.Addr, size)
	if err != nil {
		return c.memErr(*v, err)
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
	v.IsLvalue, v.BitOff, v.BitWidth = false, 0, 0
	v.setBytes(b) // decodes scratch bytes inline; keeps only an own slice
	return nil
}

// Rval returns v's rvalue (see Load).
func (c *Ctx) Rval(v Value) (Value, error) {
	err := c.Load(&v)
	return v, err
}

// Store assigns rvalue src into lvalue dst (with conversion to dst's type),
// handling bitfields with read-modify-write.
func (c *Ctx) Store(dst, src Value) error {
	if p, ok := PoisonOf(dst, src); ok {
		return p.Err()
	}
	if !dst.IsLvalue {
		return c.typeErrf(dst, "not an lvalue")
	}
	st := ctype.Strip(dst.Type)
	conv, err := c.Convert(src, dst.Type)
	if err != nil {
		return err
	}
	if dst.BitWidth > 0 {
		size := st.Size()
		cur, err := c.fetch(dst.Addr, size)
		if err != nil {
			return c.memErr(dst, err)
		}
		u := mem.DecodeUint(cur)
		mask := (uint64(1)<<uint(dst.BitWidth) - 1) << uint(dst.BitOff)
		u = u&^mask | (conv.AsUint()<<uint(dst.BitOff))&mask
		if err := c.D.PutTargetBytes(dst.Addr, mem.EncodeUint(u, size)); err != nil {
			return c.memErr(dst, err)
		}
		return nil
	}
	if err := c.D.PutTargetBytes(dst.Addr, conv.Bytes()); err != nil {
		return c.memErr(dst, err)
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
			u = uint64(int64(v.floatBits()))
		case ctype.IsInteger(from), from.Kind() == ctype.KindPointer:
			if ctype.IsSigned(from) {
				u = uint64(v.AsInt())
			} else {
				u = v.AsUint()
			}
		case from.Kind() == ctype.KindFunc:
			u = v.AsUint()
		default:
			return Value{}, c.typeErrf(v, "cannot convert %s to %s", v.Type, t)
		}
		out := MakeInt(t, int64(u))
		out.Sym = v.Sym
		return out, nil
	case ctype.IsFloat(to):
		if !ctype.IsArithmetic(from) {
			return Value{}, c.typeErrf(v, "cannot convert %s to %s", v.Type, t)
		}
		out := MakeFloat(t, v.AsFloat())
		out.Sym = v.Sym
		return out, nil
	case to.Kind() == ctype.KindVoid:
		return Value{Type: t, Sym: v.Sym}, nil
	case (to.Kind() == ctype.KindStruct || to.Kind() == ctype.KindUnion) && from == to:
		out := v
		out.Type = t
		return out, nil
	}
	return Value{}, c.typeErrf(v, "cannot convert %s to %s", v.Type, t)
}

// Truth reports whether scalar rvalue v is non-zero, giving C's truth test.
func (c *Ctx) Truth(v Value) (bool, error) {
	if v.IsPoison() {
		return false, nil
	}
	st := ctype.Strip(v.Type)
	if !ctype.IsScalar(st) {
		return false, c.typeErrf(v, "%s is not a scalar", v.Type)
	}
	return !v.IsZero(), nil
}
