package value

import (
	"strings"
	"testing"

	"duel/internal/ctype"
	"duel/internal/duel/ast"
)

func TestConvertErrors(t *testing.T) {
	c, f := newCtx()
	a := c.Arch
	s, _ := a.StructOf("s", ctype.FieldSpec{Name: "x", Type: a.Int})
	sv := FromBytes(s, make([]byte, s.Size()))
	if _, err := c.Convert(sv, a.Int); err == nil {
		t.Error("struct -> int accepted")
	}
	if _, err := c.Convert(MakeInt(a.Int, 1), s); err == nil {
		t.Error("int -> struct accepted")
	}
	// void conversion discards the value.
	v, err := c.Convert(MakeInt(a.Int, 1), a.Void)
	if err != nil || !ctype.IsVoid(v.Type) {
		t.Errorf("int -> void: %v, %v", v, err)
	}
	// Identity through a typedef.
	td := &ctype.Typedef{Name: "T", Under: a.Int}
	v, err = c.Convert(MakeInt(a.Int, 7), td)
	if err != nil || v.AsInt() != 7 {
		t.Errorf("typedef conversion: %v, %v", v, err)
	}
	_ = f
}

func TestFloatConversionsAndArith(t *testing.T) {
	c, _ := newCtx()
	a := c.Arch
	// float operand promotes the arithmetic to double.
	v, err := c.Binary(ast.OpPlus, MakeFloat(a.Float, 1.5), MakeInt(a.Int, 1))
	if err != nil || v.AsFloat() != 2.5 || ctype.Strip(v.Type).Kind() != ctype.KindDouble {
		t.Errorf("float+int: %v %s %v", v.AsFloat(), v.Type, err)
	}
	// double comparisons.
	v, _ = c.Binary(ast.OpLt, MakeFloat(a.Double, 1.5), MakeFloat(a.Double, 2.0))
	if v.AsInt() != 1 {
		t.Error("1.5 < 2.0 false")
	}
	// float -> float32 round trip through Convert.
	v, err = c.Convert(MakeFloat(a.Double, 2.25), a.Float)
	if err != nil || v.AsFloat() != 2.25 {
		t.Errorf("double->float: %v, %v", v.AsFloat(), err)
	}
	// Unary minus on a char promotes to int.
	v, _ = c.Unary(ast.OpNeg, MakeInt(a.Char, 3))
	if !ctype.Equal(v.Type, a.Int) {
		t.Errorf("promotion type = %s", v.Type)
	}
}

func TestComparisonMixes(t *testing.T) {
	c, _ := newCtx()
	a := c.Arch
	// Pointer vs integer zero (NULL checks).
	p := MakePtr(a.Ptr(a.Int), 0x1000)
	v, err := c.Binary(ast.OpIfNe, p, MakeInt(a.Int, 0))
	if err != nil || v.IsZero() {
		t.Errorf("p !=? 0: %v, %v", v, err)
	}
	// Pointer vs pointer.
	q := MakePtr(a.Ptr(a.Int), 0x2000)
	v, _ = c.Binary(ast.OpLt, p, q)
	if v.AsInt() != 1 {
		t.Error("pointer ordering failed")
	}
	// Incomparable: struct operand.
	s, _ := a.StructOf("sc", ctype.FieldSpec{Name: "x", Type: a.Int})
	sv := FromBytes(s, make([]byte, s.Size()))
	if _, err := c.Binary(ast.OpEq, sv, MakeInt(a.Int, 0)); err == nil {
		t.Error("struct comparison accepted")
	}
	// Char comparisons sign-extend.
	v, _ = c.Binary(ast.OpLt, MakeInt(a.Char, -1), MakeInt(a.Char, 1))
	if v.AsInt() != 1 {
		t.Error("signed char comparison")
	}
}

func TestPointerArithErrors(t *testing.T) {
	c, _ := newCtx()
	a := c.Arch
	p := MakePtr(a.Ptr(a.Int), 0x1000)
	if _, err := c.Binary(ast.OpMultiply, p, MakeInt(a.Int, 2)); err == nil {
		t.Error("pointer multiplication accepted")
	}
	if _, err := c.Binary(ast.OpPlus, p, MakeFloat(a.Double, 1)); err == nil {
		t.Error("pointer + double accepted")
	}
	// void* arithmetic treats the pointee as size 1.
	vp := MakePtr(a.Ptr(a.Void), 0x1000)
	v, err := c.Binary(ast.OpPlus, vp, MakeInt(a.Int, 5))
	if err != nil || v.AsUint() != 0x1005 {
		t.Errorf("void* + 5: 0x%x, %v", v.AsUint(), err)
	}
}

func TestFieldOnIncompleteStruct(t *testing.T) {
	c, f := newCtx()
	a := c.Arch
	shell := a.NewStruct("fwd", false)
	lv := Lvalue(shell, 0x1000)
	if _, err := c.Field(lv, "x"); err == nil {
		t.Error("field of incomplete struct accepted")
	}
	_ = f
}

func TestIndexIncompletePointee(t *testing.T) {
	c, _ := newCtx()
	a := c.Arch
	// void* indexes byte-wise (sizeof(void)==1, the gdb extension).
	vp := MakePtr(a.Ptr(a.Void), 0x1000)
	v, err := c.Index(vp, MakeInt(a.Int, 5))
	if err != nil || v.Addr != 0x1005 {
		t.Errorf("void* index: %v, %v", v, err)
	}
	// A pointer to an incomplete struct cannot be indexed.
	shell := a.NewStruct("inc", false)
	sp := MakePtr(a.Ptr(shell), 0x1000)
	if _, err := c.Index(sp, MakeInt(a.Int, 1)); err == nil {
		t.Error("indexing incomplete-struct pointer accepted")
	}
}

func TestFuncDesignatorDecay(t *testing.T) {
	c, _ := newCtx()
	a := c.Arch
	ft := a.FuncOf(a.Int, nil, false)
	des := Lvalue(ft, 0x9000)
	rv, err := c.Rval(des)
	if err != nil {
		t.Fatal(err)
	}
	pt, ok := ctype.Strip(rv.Type).(*ctype.Pointer)
	if !ok || ctype.Strip(pt.Elem).Kind() != ctype.KindFunc || rv.AsUint() != 0x9000 {
		t.Errorf("designator decay: %s 0x%x", rv.Type, rv.AsUint())
	}
	// Deref of a function pointer yields the designator back.
	back, err := c.Deref(rv)
	if err != nil || back.Addr != 0x9000 {
		t.Errorf("func deref: %v, %v", back, err)
	}
}

func TestErrorStrings(t *testing.T) {
	me := &MemError{Context: "ptr[48]->val", Sym: "ptr[48]", Addr: 0x16820}
	want := "Illegal memory reference in ptr[48] of ptr[48]->val: ptr[48] = lvalue 0x16820"
	if me.Error() != want {
		t.Errorf("MemError = %q", me.Error())
	}
	me2 := &MemError{Sym: "x", Addr: 8}
	if !strings.Contains(me2.Error(), "x = lvalue 0x8") {
		t.Errorf("MemError short = %q", me2.Error())
	}
	te := &TypeError{Sym: "p", Msg: "not a pointer"}
	if !strings.Contains(te.Error(), "p") || !strings.Contains(te.Error(), "not a pointer") {
		t.Errorf("TypeError = %q", te.Error())
	}
	te2 := &TypeError{Msg: "bare"}
	if te2.Error() != "type error: bare" {
		t.Errorf("TypeError bare = %q", te2.Error())
	}
	ee := &EvalError{Sym: "s", Msg: "boom"}
	if !strings.Contains(ee.Error(), "s") {
		t.Errorf("EvalError = %q", ee.Error())
	}
	ee2 := &EvalError{Msg: "bare"}
	if ee2.Error() != "bare" {
		t.Errorf("EvalError bare = %q", ee2.Error())
	}
}

func TestSymAt(t *testing.T) {
	var st SymStore
	s := st.Binary(st.Text("a"), "+", st.Text("b"), PrecAdditive)
	if got := st.String(st.Pre("-", s)); got != "-(a+b)" {
		t.Errorf("paren at higher min: %q", got)
	}
	if got := st.String(st.Binary(s, "+", st.Text("c"), PrecAdditive)); got != "a+b+c" {
		t.Errorf("no paren at equal min: %q", got)
	}
	if got := st.String(st.Index(st.Text("x"), st.Int(3))); got != "x[3]" {
		t.Errorf("atom never parenthesized: %q", got)
	}
}

func TestStructRvalueFieldBounds(t *testing.T) {
	c, _ := newCtx()
	a := c.Arch
	s, _ := a.StructOf("sb",
		ctype.FieldSpec{Name: "x", Type: a.Int},
		ctype.FieldSpec{Name: "y", Type: a.Int},
	)
	short := FromBytes(s, make([]byte, 4)) // truncated rvalue
	if _, err := c.Field(short, "y"); err == nil {
		t.Error("out-of-bounds rvalue field accepted")
	}
}
