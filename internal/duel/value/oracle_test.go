package value

import (
	"testing"

	"duel/internal/ctype"
	"duel/internal/duel/ast"
)

// oracleBinary is the integer and pointer part of Binary as it was before
// operands of one wide integer type skipped the usual arithmetic
// conversions: every arithmetic operator and comparison applies UsualArith
// and converts both operands. It is kept as the oracle Binary must match.
func (c *Ctx) oracleBinary(op ast.Op, a, b Value) (Value, error) {
	at, bt := ctype.Strip(a.Type), ctype.Strip(b.Type)
	if op == ast.OpPlus || op == ast.OpMinus || op == ast.OpMultiply || op == ast.OpDivide {
		t, err := c.UsualArith(a, b)
		if err != nil {
			return Value{}, err
		}
		ca, err := c.Convert(a, t)
		if err != nil {
			return Value{}, err
		}
		cb, err := c.Convert(b, t)
		if err != nil {
			return Value{}, err
		}
		x, y := ca.AsUint(), cb.AsUint()
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
	var cmp int
	switch {
	case ctype.IsArithmetic(at) && ctype.IsArithmetic(bt):
		t, err := c.UsualArith(a, b)
		if err != nil {
			return Value{}, err
		}
		ca, _ := c.Convert(a, t)
		cb, _ := c.Convert(b, t)
		if ctype.IsSigned(t) {
			x, y := signExt(ca.AsUint(), t.Size()), signExt(cb.AsUint(), t.Size())
			switch {
			case x < y:
				cmp = -1
			case x > y:
				cmp = 1
			}
		} else {
			x, y := ca.AsUint(), cb.AsUint()
			switch {
			case x < y:
				cmp = -1
			case x > y:
				cmp = 1
			}
		}
	default:
		x, y := a.AsUint(), b.AsUint()
		switch {
		case x < y:
			cmp = -1
		case x > y:
			cmp = 1
		}
	}
	var truth bool
	switch op {
	case ast.OpLt, ast.OpIfLt:
		truth = cmp < 0
	case ast.OpGt, ast.OpIfGt:
		truth = cmp > 0
	case ast.OpLe, ast.OpIfLe:
		truth = cmp <= 0
	case ast.OpGe, ast.OpIfGe:
		truth = cmp >= 0
	case ast.OpEq, ast.OpIfEq:
		truth = cmp == 0
	case ast.OpNe, ast.OpIfNe:
		truth = cmp != 0
	}
	if truth {
		return MakeInt(c.Arch.Int, 1), nil
	}
	return MakeInt(c.Arch.Int, 0), nil
}

// TestBinaryMatchesOracle applies every comparison and +, -, *, / to every
// pair of integer types (char through unsigned long long, an enum and a
// typedef of int) at their boundary values, and pointers against 0 and
// each other, on ILP32 and LP64. Binary must give the oracle's type,
// bytes and error.
func TestBinaryMatchesOracle(t *testing.T) {
	ops := []ast.Op{
		ast.OpLt, ast.OpGt, ast.OpLe, ast.OpGe, ast.OpEq, ast.OpNe,
		ast.OpIfLt, ast.OpIfGt, ast.OpIfLe, ast.OpIfGe, ast.OpIfEq, ast.OpIfNe,
		ast.OpPlus, ast.OpMinus, ast.OpMultiply, ast.OpDivide,
	}
	for _, model := range []ctype.Model{ctype.ILP32, ctype.LP64} {
		c, _ := newCtx()
		a := ctype.New(model)
		c.Arch = a
		types := []ctype.Type{
			a.Char, a.SChar, a.UChar, a.Short, a.UShort, a.Int, a.UInt,
			a.Long, a.ULong, a.LongLong, a.ULongLong,
			a.EnumOf("color", []ctype.EnumConst{{Name: "red", Value: 0}}),
			&ctype.Typedef{Name: "myint", Under: a.Int},
		}
		var vals []Value
		for _, ty := range types {
			bits := 8 * uint(ctype.Strip(ty).Size())
			lo, hi := int64(0), int64(1)<<(bits-1)-1 // signed range, or [0, max] below
			if !ctype.IsSigned(ty) {
				hi = int64(uint64(1)<<bits - 1) // -1 for 64 bits: all ones
			} else {
				lo = -hi - 1
			}
			for _, v := range []int64{lo, -1, 0, 1, hi} {
				vals = append(vals, MakeInt(ty, v))
			}
		}
		ptr := a.Ptr(a.Int)
		var ptrs []Value
		for _, p := range []int64{0, 1, -1} {
			ptrs = append(ptrs, MakePtr(ptr, uint64(p)))
		}
		zero := MakeInt(a.Int, 0)
		check := func(op ast.Op, x, y Value) {
			t.Helper()
			got, gerr := c.Binary(op, x, y)
			want, werr := c.oracleBinary(op, x, y)
			switch {
			case (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error():
				t.Errorf("%s: %s(%#x) %s %s(%#x): error %v, oracle %v", model, x.Type, x.AsUint(), op.Symbol(), y.Type, y.AsUint(), gerr, werr)
			case gerr == nil && (!ctype.Equal(got.Type, want.Type) || string(got.Bytes()) != string(want.Bytes())):
				t.Errorf("%s: %s(%#x) %s %s(%#x) = %s %x, oracle %s %x", model, x.Type, x.AsUint(), op.Symbol(), y.Type, y.AsUint(), got.Type, got.Bytes(), want.Type, want.Bytes())
			}
		}
		for _, op := range ops {
			for _, x := range vals {
				for _, y := range vals {
					check(op, x, y)
				}
			}
			if op == ast.OpPlus || op == ast.OpMinus || op == ast.OpMultiply || op == ast.OpDivide {
				continue // pointer arithmetic is not the usual conversions
			}
			for _, p := range ptrs {
				check(op, p, zero)
				check(op, zero, p)
				for _, q := range ptrs {
					check(op, p, q)
				}
			}
		}
	}
}
