package display

import (
	"strconv"
	"strings"
	"testing"

	"duel/internal/ctype"
	"duel/internal/duel/value"
	"duel/internal/fakedbg"
	"duel/internal/memio"
)

func newPrinter() (*Printer, *fakedbg.Fake) {
	f := fakedbg.New(ctype.ILP32, 1<<16)
	ctx := &value.Ctx{Arch: f.A, D: memio.New(f, memio.Config{}), Syms: &value.SymStore{}}
	return New(ctx), f
}

func TestScalarFormatting(t *testing.T) {
	p, f := newPrinter()
	a := f.A
	cases := []struct {
		v    value.Value
		want string
	}{
		{value.MakeInt(a.Int, -42), "-42"},
		{value.MakeInt(a.UInt, 0xFFFFFFFF), "4294967295"},
		{value.MakeFloat(a.Double, 2.5), "2.5"},
		{value.MakeFloat(a.Double, 1e10), "1e+10"},
		{value.MakeInt(a.Char, 'c'), "'c'"},
		{value.MakeInt(a.Char, '\n'), `'\n'`},
		{value.MakeInt(a.Char, 0), `'\0'`},
		{value.MakeInt(a.UChar, 200), `'\310'`},
		{value.MakePtr(a.Ptr(a.Int), 0x1234), "0x1234"},
		{value.MakePtr(a.Ptr(a.Int), 0), "0x0"},
	}
	for _, c := range cases {
		got, err := p.Format(c.v)
		if err != nil {
			t.Errorf("Format: %v", err)
			continue
		}
		if got != c.want {
			t.Errorf("Format = %q, want %q", got, c.want)
		}
	}
}

func TestCharPointerShowsString(t *testing.T) {
	p, f := newPrinter()
	a := f.A
	addr, _ := f.AllocTargetSpace(8, 1)
	_ = f.PutTargetBytes(addr, append([]byte("abc"), 0))
	got, err := p.Format(value.MakePtr(a.Ptr(a.Char), addr))
	if err != nil || got != `"abc"` {
		t.Errorf("char* = %q, %v", got, err)
	}
	// Unreadable pointer falls back to hex.
	got, _ = p.Format(value.MakePtr(a.Ptr(a.Char), 0x99999999))
	if got != "0x99999999" {
		t.Errorf("bad char* = %q", got)
	}
}

// TestCStringChunks checks that reading a string a chunk at a time prints
// what reading it a byte at a time prints: strings that cross chunks, hit
// MaxString, end at the last mapped byte, or run off mapped memory.
func TestCStringChunks(t *testing.T) {
	p, f := newPrinter()
	a := f.A
	end := f.Base + uint64(len(f.RAM))
	bytewise := func(addr uint64) string {
		var sb strings.Builder
		for i := 0; i < p.MaxString; i++ {
			b, err := f.GetTargetBytes(addr+uint64(i), 1)
			if err != nil {
				return "0x" + strconv.FormatUint(addr, 16)
			}
			if b[0] == 0 {
				break
			}
			sb.WriteByte(b[0])
		}
		return strconv.Quote(sb.String())
	}
	long := strings.Repeat("0123456789", 30)
	for _, c := range []struct {
		addr uint64
		s    string
		nul  bool
	}{
		{f.Base + 0x100, "hi", true},
		{f.Base + 0x200, long[:100], true},
		{f.Base + 0x400, long, true},
		{end - 10, "tail12345", true},
		{end - 64, strings.Repeat("x", 63), true},
		{end - 8, "offthend", false},
	} {
		b := []byte(c.s)
		if c.nul {
			b = append(b, 0)
		}
		_ = f.PutTargetBytes(c.addr, b)
		for _, max := range []int{200, 64, 65, 1} {
			p.MaxString = max
			got, err := p.Format(value.MakePtr(a.Ptr(a.Char), c.addr))
			if want := bytewise(c.addr); err != nil || got != want {
				t.Errorf("MaxString %d: %q at 0x%x = %s, %v; want %s", max, c.s, c.addr, got, err, want)
			}
		}
	}
}

func TestEnumFormatting(t *testing.T) {
	p, f := newPrinter()
	a := f.A
	e := a.EnumOf("color", []ctype.EnumConst{{Name: "RED", Value: 0}, {Name: "BLUE", Value: 6}})
	if got, _ := p.Format(value.MakeInt(e, 6)); got != "BLUE" {
		t.Errorf("enum = %q", got)
	}
	if got, _ := p.Format(value.MakeInt(e, 99)); got != "99" {
		t.Errorf("unknown enum = %q", got)
	}
}

func TestAggregateFormatting(t *testing.T) {
	p, f := newPrinter()
	a := f.A
	s, _ := a.StructOf("pair",
		ctype.FieldSpec{Name: "x", Type: a.Int},
		ctype.FieldSpec{Name: "y", Type: a.Int},
	)
	vi := f.MustVar("p", s)
	_ = f.PutTargetBytes(vi.Addr, value.MakeInt(a.Int, 1).Bytes())
	_ = f.PutTargetBytes(vi.Addr+4, value.MakeInt(a.Int, 2).Bytes())
	got, err := p.Format(value.Lvalue(s, vi.Addr))
	if err != nil || got != "{x = 1, y = 2}" {
		t.Errorf("struct = %q, %v", got, err)
	}

	arr := f.MustVar("a3", a.ArrayOf(a.Int, 3))
	for i := 0; i < 3; i++ {
		_ = f.PutTargetBytes(arr.Addr+uint64(4*i), value.MakeInt(a.Int, int64(i+1)).Bytes())
	}
	got, _ = p.Format(value.Lvalue(arr.Type, arr.Addr))
	if got != "{1, 2, 3}" {
		t.Errorf("array = %q", got)
	}

	// Char arrays display as strings.
	ca := f.MustVar("cs", a.ArrayOf(a.Char, 8))
	_ = f.PutTargetBytes(ca.Addr, append([]byte("hi"), 0))
	got, _ = p.Format(value.Lvalue(ca.Type, ca.Addr))
	if got != `"hi"` {
		t.Errorf("char array = %q", got)
	}

	// Truncation of long arrays.
	p.MaxElems = 2
	got, _ = p.Format(value.Lvalue(arr.Type, arr.Addr))
	if got != "{1, 2, ...}" {
		t.Errorf("truncated array = %q", got)
	}
}

func TestNestedDepthLimit(t *testing.T) {
	p, f := newPrinter()
	a := f.A
	inner, _ := a.StructOf("inner", ctype.FieldSpec{Name: "v", Type: a.Int})
	outer, _ := a.StructOf("outer", ctype.FieldSpec{Name: "in", Type: inner})
	vi := f.MustVar("o", outer)
	p.MaxDepth = 1
	got, _ := p.Format(value.Lvalue(outer, vi.Addr))
	if !strings.Contains(got, "{...}") {
		t.Errorf("depth limit not applied: %q", got)
	}
}

func TestLineFormats(t *testing.T) {
	p, f := newPrinter()
	a := f.A
	v := value.MakeInt(a.Int, 7)
	v.Sym = p.Ctx.Syms.Text("x[3]")
	line, err := p.Line(v)
	if err != nil || line != "x[3] = 7" {
		t.Errorf("Line = %q, %v", line, err)
	}
	// Pure constants print bare.
	v.Sym = p.Ctx.Syms.Text("7")
	if line, _ = p.Line(v); line != "7" {
		t.Errorf("constant Line = %q", line)
	}
	// Symbolic display off.
	p.Symbolic = false
	v.Sym = p.Ctx.Syms.Text("x[3]")
	if line, _ = p.Line(v); line != "7" {
		t.Errorf("non-symbolic Line = %q", line)
	}
}

func TestFrameScopeValue(t *testing.T) {
	p, _ := newPrinter()
	got, err := p.Format(value.Value{FrameScope: 3})
	if err != nil || got != "<frame 2>" {
		t.Errorf("frame scope = %q, %v", got, err)
	}
}

func TestBitfieldLineThroughPrinter(t *testing.T) {
	p, f := newPrinter()
	a := f.A
	s, _ := a.StructOf("b", ctype.FieldSpec{Name: "f", Type: a.Int, BitWidth: 3})
	vi := f.MustVar("bb", s)
	ctx := p.Ctx
	fv, _ := ctx.Field(value.Lvalue(s, vi.Addr), "f")
	_ = ctx.Store(fv, value.MakeInt(a.Int, 3))
	got, err := p.Format(fv)
	if err != nil || got != "3" {
		t.Errorf("bitfield format = %q, %v", got, err)
	}
}

func TestLP64Pointers(t *testing.T) {
	f := fakedbg.New(ctype.LP64, 1<<16)
	p := New(&value.Ctx{Arch: f.A, D: memio.New(f, memio.Config{})})
	got, err := p.Format(value.MakePtr(f.A.Ptr(f.A.Int), 0x1234567890))
	if err != nil || got != "0x1234567890" {
		t.Errorf("LP64 pointer = %q, %v", got, err)
	}
	if got, _ := p.Format(value.MakeInt(f.A.Long, -5000000000)); got != "-5000000000" {
		t.Errorf("LP64 long = %q", got)
	}
}

func TestUnionFormatting(t *testing.T) {
	p, f := newPrinter()
	a := f.A
	u, _ := a.UnionOf("u",
		ctype.FieldSpec{Name: "i", Type: a.Int},
		ctype.FieldSpec{Name: "c", Type: a.Char},
	)
	vi := f.MustVar("uv", u)
	_ = f.PutTargetBytes(vi.Addr, value.MakeInt(a.Int, 65).Bytes())
	got, err := p.Format(value.Lvalue(u, vi.Addr))
	if err != nil || got != "{i = 65, c = 'A'}" {
		t.Errorf("union = %q, %v", got, err)
	}
}

func TestIncompleteStructDisplay(t *testing.T) {
	p, f := newPrinter()
	shell := f.A.NewStruct("ghost", false)
	got, err := p.Format(value.Lvalue(shell, 0x1000))
	if err != nil || got != "<incomplete struct ghost>" {
		t.Errorf("incomplete = %q, %v", got, err)
	}
}

func TestFunctionDisplay(t *testing.T) {
	p, f := newPrinter()
	ft := f.A.FuncOf(f.A.Int, nil, false)
	got, err := p.Format(value.Lvalue(ft, 0x9000))
	if err != nil || got != "<function at 0x9000>" {
		t.Errorf("function = %q, %v", got, err)
	}
}

func TestLineLoadFault(t *testing.T) {
	p, f := newPrinter()
	lv := value.Lvalue(f.A.Int, 0x5) // unmapped
	if _, err := p.Line(lv); err == nil {
		t.Error("fault not reported through Line")
	}
}
