package core_test

import (
	"strings"
	"testing"

	"duel/internal/core"
	"duel/internal/ctype"
	"duel/internal/dbgif"
	"duel/internal/duel/parser"
	"duel/internal/duel/value"
	"duel/internal/fakedbg"
	"duel/internal/scenarios"
)

// memberFake is an ILP32 image for member steps:
//   - struct A {int f; int g} a = {1, 2} and struct B {int pad; int f}
//     b = {3, 4}: one name at two offsets, behind pa and pb;
//   - struct bits {unsigned lo:3; int hi:5; int k} bt = {5, -3, 7};
//   - union U {int i; char c} un, holding 0x141;
//   - struct pair {int a; int b} s = {10, 20} beside a global int a = 999;
//   - bad, a struct A* to the unmapped 0x16820, and nul, a null one;
//   - frame 0 with a local v = 11 beside a global struct A v.
func memberFake(t testing.TB) *fakedbg.Fake {
	t.Helper()
	f := fakedbg.New(ctype.ILP32, 1<<16)
	ar := f.A
	mk := func(tag string, fields ...ctype.FieldSpec) *ctype.Struct {
		st, err := ar.StructOf(tag, fields...)
		if err != nil {
			t.Fatal(err)
		}
		f.Structs[tag] = st
		return st
	}
	put := func(addr uint64, ty ctype.Type, v int64) {
		if err := f.PutTargetBytes(addr, value.MakeInt(ty, v).Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	sa := mk("A", ctype.FieldSpec{Name: "f", Type: ar.Int}, ctype.FieldSpec{Name: "g", Type: ar.Int})
	sb := mk("B", ctype.FieldSpec{Name: "pad", Type: ar.Int}, ctype.FieldSpec{Name: "f", Type: ar.Int})
	a := f.MustVar("sa", sa)
	put(a.Addr, ar.Int, 1)
	put(a.Addr+4, ar.Int, 2)
	b := f.MustVar("sb", sb)
	put(b.Addr, ar.Int, 3)
	put(b.Addr+4, ar.Int, 4)
	put(f.MustVar("pa", ar.Ptr(sa)).Addr, ar.Ptr(sa), int64(a.Addr))
	put(f.MustVar("pb", ar.Ptr(sb)).Addr, ar.Ptr(sb), int64(b.Addr))

	bits := mk("bits",
		ctype.FieldSpec{Name: "lo", Type: ar.UInt, BitWidth: 3},
		ctype.FieldSpec{Name: "hi", Type: ar.Int, BitWidth: 5},
		ctype.FieldSpec{Name: "k", Type: ar.Int})
	bt := f.MustVar("bt", bits)
	put(bt.Addr, ar.UInt, 5|(-3&0x1f)<<3)
	put(bt.Addr+4, ar.Int, 7)

	u, err := ar.UnionOf("U", ctype.FieldSpec{Name: "i", Type: ar.Int}, ctype.FieldSpec{Name: "c", Type: ar.Char})
	if err != nil {
		t.Fatal(err)
	}
	f.Unions["U"] = u
	put(f.MustVar("un", u).Addr, ar.Int, 0x141)

	pair := mk("pair", ctype.FieldSpec{Name: "a", Type: ar.Int}, ctype.FieldSpec{Name: "b", Type: ar.Int})
	s := f.MustVar("s", pair)
	put(s.Addr, ar.Int, 10)
	put(s.Addr+4, ar.Int, 20)
	put(f.MustVar("a", ar.Int).Addr, ar.Int, 999)

	put(f.MustVar("bad", ar.Ptr(sa)).Addr, ar.Ptr(sa), 0x16820)
	f.MustVar("nul", ar.Ptr(sa))

	f.MustVar("v", sa)
	local, err := f.AllocTargetSpace(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	put(local, ar.Int, 11)
	f.Frames = [][]dbgif.VarInfo{{{Name: "v", Type: ar.Int, Addr: local}}}
	return f
}

// evalLines evaluates src on the named driver and renders each value as
// "sym = text" (or text alone when the two coincide).
func evalLines(t *testing.T, d dbgif.Debugger, driver, src string, opts core.Options) (*core.Env, []string, error) {
	t.Helper()
	n, err := parser.Parse(src, d)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	b, err := core.GetBackend(driver)
	if err != nil {
		t.Fatal(err)
	}
	env := core.NewEnv(d, opts)
	var out []string
	err = b.Eval(env, n, func(v value.Value) error {
		text, ferr := env.FormatScalar(v)
		if ferr != nil {
			return ferr
		}
		if sym := env.Ctx.Syms.String(v.Sym); sym != "" && sym != text {
			text = sym + " = " + text
		}
		out = append(out, text)
		return nil
	})
	return env, out, err
}

// TestMemberStep pins what a '.', '->' or '-->' whose right side is a
// member name produces on both drivers. Both resolve such a member once
// per node and struct type and build the field directly; every case that
// must still go through the name lookup is here too.
func TestMemberStep(t *testing.T) {
	errorValues := core.DefaultOptions()
	errorValues.ErrorValues = true
	cScoping := core.DefaultOptions()
	cScoping.CScoping = true
	cases := []struct {
		name, src string
		opts      *core.Options // nil: DefaultOptions
		want      []string
		wantErr   string
	}{
		{name: "one node, two struct types", src: "(pa, pb, pa)->f",
			want: []string{"pa->f = 1", "pb->f = 4", "pa->f = 1"}},
		{name: "dot, two struct types", src: "(sb, sa).f", want: []string{"sb.f = 4", "sa.f = 1"}},
		{name: "bitfields", src: "bt.(lo, hi, k)", want: []string{"bt.lo = 5", "bt.hi = -3", "bt.k = 7"}},
		{name: "bitfield member step", src: "bt.hi", want: []string{"bt.hi = -3"}},
		{name: "union members", src: "un.i + un.c", want: []string{"un.i+un.c = 386"}},
		{name: "member shadows a global", src: "s.a", want: []string{"s.a = 10"}},
		{name: "global outside the scope", src: "a", want: []string{"a = 999"}},
		// The scope stays open while the member's value flows on, so
		// the right operand reads the member too.
		{name: "scope open downstream", src: "s.a + a", want: []string{"s.a+a = 20"}},
		{name: "not a member", src: "s.bt.k", want: []string{"s.bt.k = 7"}},
		{name: "underscore", src: "pa->_ == pa", want: []string{"pa==pa = 1"}},
		{name: "frame scope", src: "frame(0).v", want: []string{"frame(0).v = 11"}},
		{name: "bad pointer", src: "(pa, bad)->f", wantErr: "Illegal memory reference"},
		{name: "bad pointer as error value", src: "(pa, bad, nul, pb)->f", opts: &errorValues,
			want: []string{"pa->f = 1", "bad->f = <unmapped address 0x16820>", "nul->f = <unmapped address 0x0>", "pb->f = 4"}},
		{name: "C scoping off", src: "b := 5; s.b + b", want: []string{"s.b+b = 40"}},
		{name: "C scoping on", src: "b := 5; s.b + b", opts: &cScoping, want: []string{"s.b+b = 25"}},
		{name: "C scoping, two struct types", src: "(pa, pb)->f", opts: &cScoping, want: []string{"pa->f = 1", "pb->f = 4"}},
	}
	for _, c := range cases {
		for _, driver := range core.BackendNames() {
			opts := core.DefaultOptions()
			if c.opts != nil {
				opts = *c.opts
			}
			_, got, err := evalLines(t, memberFake(t), driver, c.src, opts)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Errorf("[%s] %s: %q: error %v, want %q", driver, c.name, c.src, err, c.wantErr)
				}
				continue
			}
			if err != nil {
				t.Errorf("[%s] %s: %q: %v", driver, c.name, c.src, err)
				continue
			}
			if strings.Join(got, "|") != strings.Join(c.want, "|") {
				t.Errorf("[%s] %s: %q:\n got  %q\n want %q", driver, c.name, c.src, got, c.want)
			}
		}
	}
}

// TestMemberStepCounts pins the work of a list walk on both drivers: one
// step, one lookup and one atom per member step, the figures the drivers
// had when they resolved every member name through fetch.
func TestMemberStepCounts(t *testing.T) {
	const n = 100
	d, err := scenarios.BuildLongList(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, driver := range core.BackendNames() {
		env, got, err := evalLines(t, d, driver, "head-->next->value", core.DefaultOptions())
		if err != nil || len(got) != n || got[n-1] != "head-->next[[99]]->value = 99" {
			t.Fatalf("[%s] head-->next->value: %d values, last %q, error %v", driver, len(got), got[len(got)-1:], err)
		}
		// machine also counts each node's NOVALUE steps.
		want := map[string][3]int64{"push": {203, 201, 401}, "machine": {604, 201, 401}}[driver]
		if c := env.Num; [3]int64{c.Values, c.Lookups, c.SymOps} != want {
			t.Errorf("[%s] Values, Lookups, SymOps = %d, %d, %d; want %v", driver, c.Values, c.Lookups, c.SymOps, want)
		}

		// The with entry stays pushed while "value" flows into ==, so
		// the right operand is the member as well.
		_, got, err = evalLines(t, d, driver, "head->value == value", core.DefaultOptions())
		if err != nil || strings.Join(got, "|") != "head->value==value = 1" {
			t.Errorf("[%s] head->value == value: %q, %v", driver, got, err)
		}
	}
}
