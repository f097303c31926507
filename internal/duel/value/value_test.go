package value

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"duel/internal/ctype"
	"duel/internal/duel/ast"
	"duel/internal/fakedbg"
	"duel/internal/memio"
)

func newCtx() (*Ctx, *fakedbg.Fake) {
	f := fakedbg.New(ctype.ILP32, 1<<16)
	return &Ctx{Arch: f.A, D: memio.New(f, memio.Config{}), Syms: &SymStore{}}, f
}

// TestValueSize pins the Value layout. Generators pass and yield Values by
// value on every element, so the struct's size is the per-element copy
// cost. amd64 Go copies structs over 64 bytes with DUFFCOPY: an 8-byte Sym
// handle, a one-pointer Err and scalar rvalues in the Addr word keep the
// struct at 56 bytes (it was 96).
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got > 64 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d bytes, want <= 64", got)
	}
	if got := unsafe.Sizeof(Sym{}); got != 8 {
		t.Errorf("unsafe.Sizeof(Sym{}) = %d bytes, want 8", got)
	}
}

func TestMakeAndExtract(t *testing.T) {
	c, _ := newCtx()
	a := c.Arch
	if v := MakeInt(a.Int, -5); v.AsInt() != -5 {
		t.Errorf("int round trip: %d", v.AsInt())
	}
	if v := MakeInt(a.UInt, 0xFFFFFFFF); v.AsUint() != 0xFFFFFFFF {
		t.Errorf("uint round trip: %d", v.AsUint())
	}
	if v := MakeInt(a.Char, -1); v.AsInt() != -1 {
		t.Errorf("char sign extension: %d", v.AsInt())
	}
	if v := MakeFloat(a.Double, 2.5); v.AsFloat() != 2.5 {
		t.Errorf("double round trip: %g", v.AsFloat())
	}
	if v := MakeFloat(a.Float, 1.5); v.AsFloat() != 1.5 {
		t.Errorf("float round trip: %g", v.AsFloat())
	}
	if !MakeInt(a.Int, 0).IsZero() || MakeInt(a.Int, 1).IsZero() {
		t.Error("IsZero int")
	}
	if !MakeFloat(a.Double, 0).IsZero() || MakeFloat(a.Double, 0.1).IsZero() {
		t.Error("IsZero float")
	}
}

// TestLoadAllocs pins the cost of an in-place load: loading a 4-byte
// lvalue allocates only the substrate's copy of the bytes (the fake
// debugger returns a fresh slice), and the loaded Value stays where it is.
func TestLoadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts: skipped under -race")
	}
	c, f := newCtx()
	vi := f.MustVar("x", c.Arch.Int)
	_ = f.PutTargetBytes(vi.Addr, []byte{42, 0, 0, 0})
	lv := Lvalue(c.Arch.Int, vi.Addr)
	var v Value
	allocs := testing.AllocsPerRun(100, func() {
		v = lv
		if err := c.Load(&v); err != nil {
			t.Fatal(err)
		}
	})
	if v.IsLvalue || v.AsInt() != 42 {
		t.Fatalf("Load: lvalue %v, value %d; want the rvalue 42", v.IsLvalue, v.AsInt())
	}
	if allocs != 0 {
		t.Errorf("Load of a 4-byte lvalue: %.1f allocations, want 0 (it is fetched into the Ctx's scratch)", allocs)
	}
}

func TestRvalLoadsAndDecays(t *testing.T) {
	c, f := newCtx()
	a := c.Arch
	vi := f.MustVar("x", a.Int)
	_ = f.PutTargetBytes(vi.Addr, []byte{42, 0, 0, 0})
	lv := Lvalue(a.Int, vi.Addr)
	rv, err := c.Rval(lv)
	if err != nil || rv.AsInt() != 42 {
		t.Errorf("Rval lvalue: %v %v", rv.AsInt(), err)
	}
	// Array decay.
	arr := f.MustVar("arr", a.ArrayOf(a.Int, 4))
	av := Lvalue(arr.Type, arr.Addr)
	pv, err := c.Rval(av)
	if err != nil {
		t.Fatal(err)
	}
	if !ctype.IsPointer(pv.Type) || pv.AsUint() != arr.Addr {
		t.Errorf("array decay: %s 0x%x", pv.Type, pv.AsUint())
	}
	// Invalid address faults with the symbolic value in the message.
	bad := Lvalue(a.Int, 0x2)
	bad.Sym = c.Syms.Text("ptr[48]")
	_, err = c.Rval(bad)
	var me *MemError
	if !errors.As(err, &me) {
		t.Fatalf("Rval bad address: %v", err)
	}
	if !strings.Contains(me.Error(), "ptr[48]") {
		t.Errorf("error message lacks symbolic value: %v", me)
	}
}

func TestStoreAndConvert(t *testing.T) {
	c, f := newCtx()
	a := c.Arch
	vi := f.MustVar("s", a.Short)
	lv := Lvalue(a.Short, vi.Addr)
	if err := c.Store(lv, MakeInt(a.Int, 0x12345)); err != nil {
		t.Fatal(err)
	}
	rv, _ := c.Rval(lv)
	if rv.AsInt() != 0x2345 {
		t.Errorf("truncating store: %#x", rv.AsInt())
	}
	// double -> int conversion truncates toward zero.
	conv, err := c.Convert(MakeFloat(a.Double, -2.9), a.Int)
	if err != nil || conv.AsInt() != -2 {
		t.Errorf("double->int: %d, %v", conv.AsInt(), err)
	}
	// int -> double.
	conv, err = c.Convert(MakeInt(a.Int, 7), a.Double)
	if err != nil || conv.AsFloat() != 7 {
		t.Errorf("int->double: %g, %v", conv.AsFloat(), err)
	}
	// pointer <-> int.
	conv, err = c.Convert(MakeInt(a.Int, 0x1234), a.Ptr(a.Char))
	if err != nil || conv.AsUint() != 0x1234 {
		t.Errorf("int->ptr: %v, %v", conv, err)
	}
	if err := c.Store(Value{Type: a.Int}, MakeInt(a.Int, 1)); err == nil {
		t.Error("store to rvalue accepted")
	}
}

func TestBitfields(t *testing.T) {
	c, f := newCtx()
	a := c.Arch
	// lo and mid are unsigned; sign is a signed bitfield (stores of 5
	// into a signed 3-bit field would read back as -3 per C).
	s, err := a.StructOf("flags",
		ctype.FieldSpec{Name: "lo", Type: a.UInt, BitWidth: 3},
		ctype.FieldSpec{Name: "mid", Type: a.UInt, BitWidth: 5},
		ctype.FieldSpec{Name: "sign", Type: a.Int, BitWidth: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	vi := f.MustVar("fl", s)
	sv := Lvalue(s, vi.Addr)
	lo, _ := c.Field(sv, "lo")
	mid, _ := c.Field(sv, "mid")
	sign, _ := c.Field(sv, "sign")
	if err := c.Store(lo, MakeInt(a.Int, 5)); err != nil {
		t.Fatal(err)
	}
	if err := c.Store(mid, MakeInt(a.Int, 21)); err != nil {
		t.Fatal(err)
	}
	if err := c.Store(sign, MakeInt(a.Int, -3)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		f    Value
		want int64
	}{{lo, 5}, {mid, 21}, {sign, -3}} {
		rv, err := c.Rval(tc.f)
		if err != nil {
			t.Fatal(err)
		}
		if rv.AsInt() != tc.want {
			t.Errorf("bitfield = %d, want %d", rv.AsInt(), tc.want)
		}
	}
	// Neighbours must be untouched by read-modify-write.
	rv, _ := c.Rval(lo)
	if rv.AsInt() != 5 {
		t.Errorf("lo clobbered: %d", rv.AsInt())
	}
	if _, err := c.AddrOf(lo); err == nil {
		t.Error("&bitfield accepted")
	}
	// Rvalue struct bitfield extraction.
	raw, _ := f.GetTargetBytes(vi.Addr, s.Size())
	srv := FromBytes(s, raw)
	frv, err := c.Field(srv, "sign")
	if err != nil {
		t.Fatal(err)
	}
	if frv.AsInt() != -3 {
		t.Errorf("rvalue bitfield = %d", frv.AsInt())
	}
}

func TestBinaryIntSemantics(t *testing.T) {
	c, _ := newCtx()
	a := c.Arch
	cases := []struct {
		op   ast.Op
		x, y int64
		want int64
	}{
		{ast.OpPlus, 3, 4, 7},
		{ast.OpMinus, 3, 4, -1},
		{ast.OpMultiply, -3, 4, -12},
		{ast.OpDivide, 7, 2, 3},
		{ast.OpDivide, -7, 2, -3}, // C truncates toward zero
		{ast.OpModulo, 7, 3, 1},
		{ast.OpModulo, -7, 3, -1},
		{ast.OpShl, 1, 10, 1024},
		{ast.OpShr, -8, 1, -4}, // arithmetic shift for signed
		{ast.OpBitAnd, 0xF0, 0x3C, 0x30},
		{ast.OpBitOr, 0xF0, 0x0C, 0xFC},
		{ast.OpBitXor, 0xFF, 0x0F, 0xF0},
		{ast.OpLt, 1, 2, 1},
		{ast.OpGe, 1, 2, 0},
		{ast.OpEq, 5, 5, 1},
		{ast.OpNe, 5, 5, 0},
	}
	for _, tc := range cases {
		got, err := c.Binary(tc.op, MakeInt(a.Int, tc.x), MakeInt(a.Int, tc.y))
		if err != nil {
			t.Errorf("%v(%d,%d): %v", tc.op, tc.x, tc.y, err)
			continue
		}
		if got.AsInt() != tc.want {
			t.Errorf("%v(%d,%d) = %d, want %d", tc.op, tc.x, tc.y, got.AsInt(), tc.want)
		}
	}
}

func TestBinaryErrors(t *testing.T) {
	c, _ := newCtx()
	a := c.Arch
	if _, err := c.Binary(ast.OpDivide, MakeInt(a.Int, 1), MakeInt(a.Int, 0)); err == nil {
		t.Error("integer division by zero accepted")
	}
	if _, err := c.Binary(ast.OpModulo, MakeInt(a.Int, 1), MakeInt(a.Int, 0)); err == nil {
		t.Error("modulo zero accepted")
	}
	if _, err := c.Binary(ast.OpDivide, MakeFloat(a.Double, 1), MakeFloat(a.Double, 0)); err == nil {
		t.Error("float division by zero accepted")
	}
	if _, err := c.Binary(ast.OpShl, MakeInt(a.Int, 1), MakeInt(a.Int, 33)); err == nil {
		t.Error("over-shift accepted")
	}
	if _, err := c.Binary(ast.OpShl, MakeInt(a.Int, 1), MakeInt(a.Int, -1)); err == nil {
		t.Error("negative shift accepted")
	}
	if _, err := c.Binary(ast.OpModulo, MakeFloat(a.Double, 1), MakeInt(a.Int, 1)); err == nil {
		t.Error("float modulo accepted")
	}
}

func TestUnsignedComparison(t *testing.T) {
	c, _ := newCtx()
	a := c.Arch
	// -1 as unsigned is the maximum value: (unsigned)-1 > 1.
	got, err := c.Binary(ast.OpGt, MakeInt(a.UInt, -1), MakeInt(a.UInt, 1))
	if err != nil || got.AsInt() != 1 {
		t.Errorf("unsigned compare: %d, %v", got.AsInt(), err)
	}
	// Mixed int/uint comparison converts to unsigned (C's footgun).
	got, _ = c.Binary(ast.OpLt, MakeInt(a.Int, -1), MakeInt(a.UInt, 1))
	if got.AsInt() != 0 {
		t.Errorf("-1 < 1u should be 0 in C, got %d", got.AsInt())
	}
}

func TestPointerArithmetic(t *testing.T) {
	c, _ := newCtx()
	a := c.Arch
	pt := a.Ptr(a.Int)
	p := MakePtr(pt, 0x1000)
	q, err := c.Binary(ast.OpPlus, p, MakeInt(a.Int, 3))
	if err != nil || q.AsUint() != 0x100c {
		t.Errorf("p+3 = 0x%x, %v", q.AsUint(), err)
	}
	q, _ = c.Binary(ast.OpPlus, MakeInt(a.Int, 2), p)
	if q.AsUint() != 0x1008 {
		t.Errorf("2+p = 0x%x", q.AsUint())
	}
	q, _ = c.Binary(ast.OpMinus, p, MakeInt(a.Int, 1))
	if q.AsUint() != 0xffc {
		t.Errorf("p-1 = 0x%x", q.AsUint())
	}
	d, _ := c.Binary(ast.OpMinus, MakePtr(pt, 0x1010), p)
	if d.AsInt() != 4 {
		t.Errorf("ptr diff = %d, want 4", d.AsInt())
	}
	cmp, _ := c.Binary(ast.OpEq, p, MakeInt(a.Int, 0))
	if cmp.AsInt() != 0 {
		t.Error("p == 0 true")
	}
}

func TestUnarySemantics(t *testing.T) {
	c, _ := newCtx()
	a := c.Arch
	if v, _ := c.Unary(ast.OpNeg, MakeInt(a.Char, 5)); v.AsInt() != -5 || !ctype.Equal(v.Type, a.Int) {
		t.Errorf("-char: %d %s (promotion expected)", v.AsInt(), v.Type)
	}
	if v, _ := c.Unary(ast.OpBitNot, MakeInt(a.Int, 0)); v.AsInt() != -1 {
		t.Errorf("~0 = %d", v.AsInt())
	}
	if v, _ := c.Unary(ast.OpNot, MakeInt(a.Int, 0)); v.AsInt() != 1 {
		t.Errorf("!0 = %d", v.AsInt())
	}
	if v, _ := c.Unary(ast.OpNot, MakeFloat(a.Double, 0.5)); v.AsInt() != 0 {
		t.Errorf("!0.5 = %d", v.AsInt())
	}
	if v, _ := c.Unary(ast.OpNeg, MakeFloat(a.Double, 2.5)); v.AsFloat() != -2.5 {
		t.Errorf("-2.5 = %g", v.AsFloat())
	}
	if _, err := c.Unary(ast.OpBitNot, MakeFloat(a.Double, 1)); err == nil {
		t.Error("~double accepted")
	}
	if _, err := c.Unary(ast.OpNeg, MakePtr(a.Ptr(a.Int), 1)); err == nil {
		t.Error("-pointer accepted")
	}
}

func TestDerefIndexField(t *testing.T) {
	c, f := newCtx()
	a := c.Arch
	sym := a.NewStruct("symbol", false)
	_ = a.SetFields(sym, []ctype.FieldSpec{
		{Name: "name", Type: a.Ptr(a.Char)},
		{Name: "scope", Type: a.Int},
		{Name: "next", Type: a.Ptr(sym)},
	})
	vi := f.MustVar("s", sym)
	_ = f.PutTargetBytes(vi.Addr+4, []byte{9, 0, 0, 0}) // scope = 9

	sv := Lvalue(sym, vi.Addr)
	fv, err := c.Field(sv, "scope")
	if err != nil {
		t.Fatal(err)
	}
	rv, _ := c.Rval(fv)
	if rv.AsInt() != 9 {
		t.Errorf("scope = %d", rv.AsInt())
	}
	if _, err := c.Field(sv, "nosuch"); err == nil {
		t.Error("unknown member accepted")
	}
	if _, err := c.Field(MakeInt(a.Int, 1), "x"); err == nil {
		t.Error("member of int accepted")
	}

	// Deref + AddrOf round trip.
	pv := MakePtr(a.Ptr(sym), vi.Addr)
	dv, err := c.Deref(pv)
	if err != nil || dv.Addr != vi.Addr {
		t.Errorf("deref: %v %v", dv, err)
	}
	back, err := c.AddrOf(dv)
	if err != nil || back.AsUint() != vi.Addr {
		t.Errorf("addrof: %v %v", back, err)
	}
	if _, err := c.Deref(MakeInt(a.Int, 5)); err == nil {
		t.Error("deref int accepted")
	}

	// Indexing.
	arr := f.MustVar("arr", a.ArrayOf(a.Int, 8))
	_ = f.PutTargetBytes(arr.Addr+12, []byte{7, 0, 0, 0})
	base, _ := c.Rval(Lvalue(arr.Type, arr.Addr))
	ev, err := c.Index(base, MakeInt(a.Int, 3))
	if err != nil {
		t.Fatal(err)
	}
	erv, _ := c.Rval(ev)
	if erv.AsInt() != 7 {
		t.Errorf("arr[3] = %d", erv.AsInt())
	}
	// C's 3[arr] spelling.
	ev2, err := c.Index(MakeInt(a.Int, 3), base)
	if err != nil || ev2.Addr != ev.Addr {
		t.Errorf("3[arr]: %v %v", ev2, err)
	}
	if _, err := c.Index(MakeInt(a.Int, 1), MakeInt(a.Int, 2)); err == nil {
		t.Error("int[int] accepted")
	}
}

func TestSymParenthesization(t *testing.T) {
	var st SymStore
	at := st.Text
	sum := func(a, b string) Sym { return st.Binary(at(a), "+", at(b), PrecAdditive) }
	diff := func(a, b string) Sym { return st.Binary(at(a), "-", at(b), PrecAdditive) }
	cases := []struct {
		a, b Sym
		op   string
		prec int
		want string
	}{
		{at("a"), at("b"), "+", PrecAdditive, "a+b"},
		{sum("a", "b"), at("c"), "*", PrecMultip, "(a+b)*c"},
		{at("c"), sum("a", "b"), "*", PrecMultip, "c*(a+b)"},
		{st.Binary(at("a"), "*", at("b"), PrecMultip), at("c"), "+", PrecAdditive, "a*b+c"},
		// Left-assoc: equal precedence on the right needs parens.
		{at("a"), diff("b", "c"), "-", PrecAdditive, "a-(b-c)"},
		{diff("a", "b"), at("c"), "-", PrecAdditive, "a-b-c"},
	}
	for _, tc := range cases {
		s := st.Binary(tc.a, tc.op, tc.b, tc.prec)
		if got := st.String(s); got != tc.want || st.length(s) != len(tc.want) {
			t.Errorf("Binary = %q (Len %d), want %q", got, st.length(s), tc.want)
		}
	}
}

// TestArithAgainstGo cross-checks the int engine against Go's arithmetic
// under ILP32 int semantics.
func TestArithAgainstGo(t *testing.T) {
	c, _ := newCtx()
	a := c.Arch
	f := func(x, y int32, opSel uint8) bool {
		ops := []ast.Op{ast.OpPlus, ast.OpMinus, ast.OpMultiply, ast.OpBitAnd, ast.OpBitOr, ast.OpBitXor}
		op := ops[int(opSel)%len(ops)]
		got, err := c.Binary(op, MakeInt(a.Int, int64(x)), MakeInt(a.Int, int64(y)))
		if err != nil {
			return false
		}
		var want int32
		switch op {
		case ast.OpPlus:
			want = x + y
		case ast.OpMinus:
			want = x - y
		case ast.OpMultiply:
			want = x * y
		case ast.OpBitAnd:
			want = x & y
		case ast.OpBitOr:
			want = x | y
		case ast.OpBitXor:
			want = x ^ y
		}
		return got.AsInt() == int64(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestTruth(t *testing.T) {
	c, _ := newCtx()
	a := c.Arch
	for _, tc := range []struct {
		v    Value
		want bool
	}{
		{MakeInt(a.Int, 0), false},
		{MakeInt(a.Int, -1), true},
		{MakeFloat(a.Double, 0), false},
		{MakeFloat(a.Double, 0.001), true},
		{MakePtr(a.Ptr(a.Int), 0), false},
		{MakePtr(a.Ptr(a.Int), 0x1000), true},
	} {
		got, err := c.Truth(tc.v)
		if err != nil || got != tc.want {
			t.Errorf("Truth(%v) = %v, %v", tc.v, got, err)
		}
	}
	s, _ := a.StructOf("s", ctype.FieldSpec{Name: "x", Type: a.Int})
	if _, err := c.Truth(FromBytes(s, make([]byte, s.Size()))); err == nil {
		t.Error("struct truth accepted")
	}
}

// alwaysTransient fails every read with a retryable fault.
type alwaysTransient struct{ *fakedbg.Fake }

func (alwaysTransient) FetchTargetBytes(uint64, []byte) error { return memio.ErrTransient }

// TestTransientMemError: a load that faulted transiently on every attempt
// the accessor's retry schedule allowed is reported as a transient fault
// with the number of attempts, not as the paper's illegal reference, with
// the page cache off and on; an unmapped address keeps the paper's text.
func TestTransientMemError(t *testing.T) {
	f := fakedbg.New(ctype.ILP32, 1<<16)
	x := f.MustVar("x", f.A.ArrayOf(f.A.Int, 4))
	for _, cache := range []bool{false, true} {
		acc := memio.New(alwaysTransient{f}, memio.Config{Cache: cache, RetryBackoff: time.Microsecond})
		c := &Ctx{Arch: f.A, D: acc, Syms: &SymStore{}}
		v := Lvalue(f.A.Int, x.Addr+4)
		v.Sym = c.Syms.Text("x[1]")
		_, err := c.Rval(v)
		want := fmt.Sprintf("Transient target fault after 4 attempts: x[1] = lvalue 0x%x", x.Addr+4)
		if err == nil || err.Error() != want {
			t.Errorf("cache %v: error %v, want %q", cache, err, want)
		}
		if !memio.IsRetryExhausted(err) {
			t.Errorf("cache %v: error %v does not carry the exhausted retry schedule", cache, err)
		}
	}
	c, _ := newCtx()
	bad := Lvalue(f.A.Int, 0x16820)
	bad.Sym = c.Syms.Text("ptr[48]")
	if _, err := c.Rval(bad); err == nil || err.Error() != "Illegal memory reference: ptr[48] = lvalue 0x16820" {
		t.Errorf("unmapped load: %v", err)
	}
}
