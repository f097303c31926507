package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"duel/internal/ctype"
	"duel/internal/dbgif"
	"duel/internal/duel/parser"
	"duel/internal/duel/value"
	"duel/internal/fakedbg"
)

// newFake builds a fake debugger with an int array x[10] = {0,10,...,90},
// ints i=0 and n=10, and an int function twice().
func newFake(t testing.TB) *fakedbg.Fake {
	t.Helper()
	f := fakedbg.New(ctype.ILP32, 1<<16)
	a := f.A
	x := f.MustVar("x", a.ArrayOf(a.Int, 10))
	for i := 0; i < 10; i++ {
		b := value.MakeInt(a.Int, int64(10*i))
		if err := f.PutTargetBytes(x.Addr+uint64(4*i), b.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	f.MustVar("i", a.Int)
	n := f.MustVar("n", a.Int)
	_ = f.PutTargetBytes(n.Addr, value.MakeInt(a.Int, 10).Bytes())
	// Function twice(k) = 2*k at a synthetic text address.
	ft := a.FuncOf(a.Int, []ctype.Type{a.Int}, false)
	f.Vars["twice"] = dbgif.VarInfo{Name: "twice", Type: ft, Addr: 0x9000}
	f.Funcs[0x9000] = func(args []dbgif.Value) (dbgif.Value, error) {
		v := value.MakeInt(a.Int, 2*value.FromBytes(args[0].Type, args[0].Bytes).AsInt())
		return dbgif.Value{Type: v.Type, Bytes: v.Bytes()}, nil
	}
	return f
}

// evalStrings evaluates src on the named backend and returns each value's
// "sym = text" line (or just text when they coincide).
func evalStrings(t testing.TB, f *fakedbg.Fake, backend, src string) ([]string, error) {
	t.Helper()
	n, err := parser.Parse(src, f)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	b, err := GetBackend(backend)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(f, DefaultOptions())
	var out []string
	err = b.Eval(env, n, func(v value.Value) error {
		s, ferr := env.FormatScalar(v)
		if ferr != nil {
			s = "<" + v.Type.String() + ">"
		}
		if env.text(v.Sym) != "" && env.text(v.Sym) != s {
			s = env.text(v.Sym) + " = " + s
		}
		out = append(out, s)
		return nil
	})
	return out, err
}

func mustEval(t *testing.T, backend, src string, want ...string) {
	t.Helper()
	f := newFake(t)
	got, err := evalStrings(t, f, backend, src)
	if err != nil {
		t.Fatalf("[%s] %q: %v", backend, src, err)
	}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("[%s] %q:\n got  %q\n want %q", backend, src, got, want)
	}
}

func allBackends(t *testing.T, src string, want ...string) {
	t.Helper()
	for _, b := range BackendNames() {
		mustEval(t, b, src, want...)
	}
}

func TestOperatorSemantics(t *testing.T) {
	// Each case exercised on every backend.
	allBackends(t, "1+2", "1+2 = 3")
	allBackends(t, "(1..3)+(5,9)",
		"1+5 = 6", "1+9 = 10", "2+5 = 7", "2+9 = 11", "3+5 = 8", "3+9 = 12")
	allBackends(t, "1..3", "1", "2", "3")
	allBackends(t, "3..1")
	allBackends(t, "..3", "0", "1", "2")
	allBackends(t, "(1,2),(3)", "1", "2", "3")
	allBackends(t, "(1..2)..(2..3)", "1", "2", "1", "2", "3", "2", "2", "3")
	allBackends(t, "x[2]", "x[2] = 20")
	allBackends(t, "x[1..3] >? 15", "x[2] = 20", "x[3] = 30")
	allBackends(t, "x[..10] ==? 50", "x[5] = 50")
	allBackends(t, "if (1) 5", "5")
	allBackends(t, "if (0) 5")
	allBackends(t, "if (0) 5 else 7", "7")
	allBackends(t, "(0,1,2) && 9", "9", "9")
	allBackends(t, "(0,3) || 7", "7", "3")
	allBackends(t, "1 ? 8 : 9", "8")
	allBackends(t, "0 ? 8 : 9", "9")
	allBackends(t, "i = 5", "i = 5")
	allBackends(t, "i = 5; i+1", "i+1 = 6")
	allBackends(t, "i = 5; i += 2; i", "i = 7")
	allBackends(t, "i = 5; ++i", "++i = 6")
	allBackends(t, "i = 5; i++", "i++ = 5")
	allBackends(t, "i = 5; i++; i", "i = 6")
	allBackends(t, "(1..3) => 9", "9", "9", "9")
	allBackends(t, "j := 1..3; j", "j = 3")
	allBackends(t, "while (i++ < 3) {i}", "1", "2", "3")
	allBackends(t, "for (i = 0; i < 3; i++) {i}*2", "0*2 = 0", "1*2 = 2", "2*2 = 4")
	allBackends(t, "#/(1..5)", "5")
	allBackends(t, "#/(1..0)", "0")
	allBackends(t, "+/(1..4)", "10")
	allBackends(t, "&&/(1..5)", "1")
	allBackends(t, "&&/(0..5)", "0")
	allBackends(t, "||/(0,0,3)", "1")
	allBackends(t, "||/(0,0)", "0")
	allBackends(t, "(5..9)[[0,2,4]]", "5", "7", "9")
	allBackends(t, "(5..9)[[2,2]]", "7", "7")
	allBackends(t, "(5..9)[[7]]")
	allBackends(t, "(1..100)@4", "1", "2", "3")
	allBackends(t, "(0..)@3", "0", "1", "2")
	allBackends(t, "x[0..]@30", "x[0] = 0", "x[1] = 10", "x[2] = 20")
	allBackends(t, "(10..12)#k => {k}", "0", "1", "2")
	allBackends(t, "-x[3]", "-x[3] = -30")
	allBackends(t, "!x[0]", "!x[0] = 1")
	allBackends(t, "~0", "~0 = -1")
	allBackends(t, "sizeof(int)", "4")
	allBackends(t, "sizeof x", "40")
	allBackends(t, "sizeof x[0]", "4")
	allBackends(t, "(char)321", "(char)321 = 65")
	allBackends(t, "&x[2] - &x[0]", "&x[2]-&x[0] = 2")
	allBackends(t, "*&x[4]", "*&x[4] = 40")
	allBackends(t, "twice(21)", "twice(21) = 42")
	allBackends(t, "twice(1..3)", "twice(1) = 2", "twice(2) = 4", "twice(3) = 6")
	allBackends(t, "twice(twice(10))", "twice(twice(10)) = 40")
	allBackends(t, "int q; q = 3; q+q", "q+q = 6")
	allBackends(t, "int q = 8; q", "q = 8")
	allBackends(t, "x[1,9]", "x[1] = 10", "x[9] = 90")
	// The index symbolic shows the derivation "0*3", like the paper's x[1+2].
	allBackends(t, "x[(0..2)*3]", "x[0*3] = 0", "x[1*3] = 30", "x[2*3] = 60")
	allBackends(t, "{x[5]}", "50")
	allBackends(t, "1.5+1", "1.5+1 = 2.5")
	allBackends(t, "7/2", "7/2 = 3")
	allBackends(t, "7.0/2", "7.0/2 = 3.5")
	allBackends(t, "1 << 4", "1<<4 = 16")
	allBackends(t, "x[n-1]", "x[n-1] = 90")
}

// TestBinaryReevaluatesRight checks the paper's core operational rule: the
// right operand is re-evaluated for every value of the left one, so side
// effects repeat (and symbol lookups multiply, the T4 claim).
func TestBinaryReevaluatesRight(t *testing.T) {
	for _, b := range BackendNames() {
		// Assignments display as "lvalue = stored value", so the right
		// operand's symbolic is the plain "i".
		mustEval(t, b, "i = 0; (10,20,30) + (i += 1)",
			"10+i = 11", "20+i = 22", "30+i = 33")
	}
}

func TestLookupCounting(t *testing.T) {
	f := newFake(t)
	n, err := parser.Parse("(1..100)+i", f)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(f, DefaultOptions())
	b, _ := GetBackend("push")
	if err := b.Eval(env, n, func(value.Value) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if env.Num.Lookups != 100 {
		t.Errorf("lookups = %d, want 100 (the paper's claim about 1..100+i)", env.Num.Lookups)
	}
}

func TestSymbolicToggleSkipsSymOps(t *testing.T) {
	f := newFake(t)
	n, _ := parser.Parse("x[..10] >? 0", f)
	opts := DefaultOptions()
	opts.Symbolic = false
	env := NewEnv(f, opts)
	b, _ := GetBackend("push")
	if err := b.Eval(env, n, func(value.Value) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if env.Num.SymOps != 0 {
		t.Errorf("SymOps = %d with symbolic off", env.Num.SymOps)
	}
}

func TestErrors(t *testing.T) {
	f := newFake(t)
	for _, src := range []string{
		"nosuchvar",
		"x[..10] / 0",
		"1 = 2",         // not an lvalue
		"x -> f",        // -> on non-pointer
		"i --> j",       // --> on non-pointer int... i is int
		"_",             // _ outside with
		"(1..3)[[0-1]]", // negative select index... parses as (0-1)
		"x(1)",          // call of non-function
		"frame(0)",      // no frames
		"sizeof(1..0)",  // empty sizeof operand
		"1..(1,)",       // parse error
	} {
		for _, b := range BackendNames() {
			if _, err := evalStrings(t, f, b, src); err == nil {
				t.Errorf("[%s] %q evaluated without error", b, src)
			}
		}
	}
}

func TestUnboundedGeneratorCapped(t *testing.T) {
	f := newFake(t)
	n, _ := parser.Parse("#/(0..)", f)
	opts := DefaultOptions()
	opts.MaxOpenRange = 1000
	for _, name := range BackendNames() {
		b, _ := GetBackend(name)
		env := NewEnv(f, opts)
		if err := b.Eval(env, n, func(value.Value) error { return nil }); err == nil {
			t.Errorf("[%s] unbounded count terminated without error", name)
		}
	}
}

// TestFrameScopes exercises frame(i) scopes over fake frames: the same
// local name resolves per frame.
func TestFrameScopes(t *testing.T) {
	f := newFake(t)
	a := f.A
	addr0, _ := f.AllocTargetSpace(4, 4)
	addr1, _ := f.AllocTargetSpace(4, 4)
	_ = f.PutTargetBytes(addr0, value.MakeInt(a.Int, 11).Bytes())
	_ = f.PutTargetBytes(addr1, value.MakeInt(a.Int, 22).Bytes())
	f.Frames = [][]dbgif.VarInfo{
		{{Name: "v", Type: a.Int, Addr: addr0}},
		{{Name: "v", Type: a.Int, Addr: addr1}},
	}
	for _, b := range BackendNames() {
		got, err := evalStrings(t, f, b, "frame(0..1).v")
		if err != nil {
			t.Fatalf("[%s] %v", b, err)
		}
		want := []string{"frame(0).v = 11", "frame(1).v = 22"}
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Errorf("[%s] frames: %q, want %q", b, got, want)
		}
		got, err = evalStrings(t, f, b, "frames()")
		if err != nil || len(got) != 1 || got[0] != "2" {
			t.Errorf("[%s] frames() = %v, %v", b, got, err)
		}
	}
}

// TestDifferentialRandom generates random integer DUEL expressions and
// checks all backends agree on values, symbolic output and counters.
func TestDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	for trial := 0; trial < 300; trial++ {
		src := randExpr(rng, 0)
		var ref []string
		var refErr error
		for i, b := range BackendNames() {
			// A fresh image per backend: generated expressions may
			// mutate the target.
			f := newFake(t)
			got, err := evalStrings(t, f, b, src)
			if i == 0 {
				ref, refErr = got, err
				continue
			}
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%q: backend %s err=%v, ref err=%v", src, b, err, refErr)
			}
			if err != nil {
				continue
			}
			if strings.Join(got, "|") != strings.Join(ref, "|") {
				t.Fatalf("%q: backend %s disagrees:\n got %q\n ref %q", src, b, got, ref)
			}
		}
	}
}

// listFake builds newFake plus a 4-node linked list rooted at "head".
func listFake(t testing.TB) *fakedbg.Fake {
	t.Helper()
	f := newFake(t)
	addList(t, f, 4, 10)
	return f
}

// addList adds to f the type struct node {int value; struct node *next}
// and a list head of n nodes whose values run first, first+1, ...
func addList(t testing.TB, f *fakedbg.Fake, n, first int) {
	t.Helper()
	a := f.A
	node := a.NewStruct("node", false)
	if err := a.SetFields(node, []ctype.FieldSpec{
		{Name: "value", Type: a.Int},
		{Name: "next", Type: a.Ptr(node)},
	}); err != nil {
		t.Fatal(err)
	}
	f.Structs["node"] = node
	next, _ := node.Field("next")
	link := f.MustVar("head", a.Ptr(node)).Addr
	for i := 0; i < n; i++ {
		addr, err := f.AllocTargetSpace(node.Size(), node.Align())
		if err != nil {
			t.Fatal(err)
		}
		if err := f.PutTargetBytes(link, value.MakePtr(a.Ptr(node), addr).Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := f.PutTargetBytes(addr, value.MakeInt(a.Int, int64(first+i)).Bytes()); err != nil {
			t.Fatal(err)
		}
		link = addr + uint64(next.Off)
	}
}

// TestDifferentialDfsWith fuzzes expressions over the list structure so the
// with/dfs machinery is exercised differentially across backends.
func TestDifferentialDfsWith(t *testing.T) {
	shapes := []string{
		"head-->next->value",
		"#/(head-->next)",
		"(head-->next->value)[[%d]]",
		"head-->next->(value >? %d)",
		"head-->next->(value ==? next-->next->value)",
		"head-->next#q->value => {q}",
		"+/(head-->next->value) + %d",
		"head-->next->(if (next) value)",
		"(head-->next)[[%d]]->value",
		"head-->next->value@%d",
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 120; trial++ {
		shape := shapes[rng.Intn(len(shapes))]
		src := shape
		if strings.Contains(shape, "%d") {
			src = fmt.Sprintf(shape, rng.Intn(15))
		}
		var ref []string
		var refErr error
		for i, b := range BackendNames() {
			f := listFake(t)
			got, err := evalStrings(t, f, b, src)
			if i == 0 {
				ref, refErr = got, err
				continue
			}
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%q: backend %s err=%v, ref err=%v", src, b, err, refErr)
			}
			if err == nil && strings.Join(got, "|") != strings.Join(ref, "|") {
				t.Fatalf("%q: backend %s disagrees:\n got %q\n ref %q", src, b, got, ref)
			}
		}
	}
}

// randExpr generates a random side-effect-free DUEL expression over ints
// and the x array.
func randExpr(rng *rand.Rand, depth int) string {
	if depth > 3 {
		return fmt.Sprint(rng.Intn(7))
	}
	switch rng.Intn(12) {
	case 0:
		return fmt.Sprint(rng.Intn(10))
	case 1:
		return fmt.Sprintf("(%d..%d)", rng.Intn(4), rng.Intn(8))
	case 2:
		return fmt.Sprintf("(%s,%s)", randExpr(rng, depth+1), randExpr(rng, depth+1))
	case 3:
		return fmt.Sprintf("(%s + %s)", randExpr(rng, depth+1), randExpr(rng, depth+1))
	case 4:
		return fmt.Sprintf("(%s * %s)", randExpr(rng, depth+1), randExpr(rng, depth+1))
	case 5:
		return fmt.Sprintf("(%s >? %s)", randExpr(rng, depth+1), randExpr(rng, depth+1))
	case 6:
		return fmt.Sprintf("(%s ==? %s)", randExpr(rng, depth+1), randExpr(rng, depth+1))
	case 7:
		return fmt.Sprintf("x[..%d]", rng.Intn(11))
	case 8:
		return fmt.Sprintf("#/(%s)", randExpr(rng, depth+1))
	case 9:
		return fmt.Sprintf("+/(%s)", randExpr(rng, depth+1))
	case 10:
		return fmt.Sprintf("(if (%s) %s else %s)", randExpr(rng, depth+1), randExpr(rng, depth+1), randExpr(rng, depth+1))
	default:
		return fmt.Sprintf("(%s)[[%d]]", randExpr(rng, depth+1), rng.Intn(4))
	}
}

// TestQuickRangeCount property: #/(a..b) == max(0, b-a+1).
func TestQuickRangeCount(t *testing.T) {
	f := newFake(t)
	prop := func(a8, b8 int8) bool {
		a, b := int(a8)%50, int(b8)%50
		src := fmt.Sprintf("#/(%d..%d)", a, b)
		got, err := evalStrings(t, f, "push", src)
		if err != nil {
			return false
		}
		want := b - a + 1
		if want < 0 {
			want = 0
		}
		return len(got) == 1 && got[0] == fmt.Sprint(want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickSumRange property: +/(a..b) equals the arithmetic series sum.
func TestQuickSumRange(t *testing.T) {
	f := newFake(t)
	prop := func(a8, b8 int8) bool {
		a, b := int(a8)%40, int(b8)%40
		src := fmt.Sprintf("+/(%d..%d)", a, b)
		got, err := evalStrings(t, f, "push", src)
		if err != nil {
			return false
		}
		want := 0
		for i := a; i <= b; i++ {
			want += i
		}
		return len(got) == 1 && got[0] == fmt.Sprint(want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSelectIsIndexing property: (lo..hi)[[k]] == lo+k when in range.
func TestSelectIsIndexing(t *testing.T) {
	f := newFake(t)
	prop := func(lo8 uint8, span8 uint8, k8 uint8) bool {
		lo, span, k := int(lo8)%20, int(span8)%20, int(k8)%25
		src := fmt.Sprintf("(%d..%d)[[%d]]", lo, lo+span, k)
		got, err := evalStrings(t, f, "push", src)
		if err != nil {
			return false
		}
		if k > span {
			return len(got) == 0
		}
		return len(got) == 1 && got[0] == fmt.Sprint(lo+k)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAliasIsolationAcrossEvals(t *testing.T) {
	f := newFake(t)
	env := NewEnv(f, DefaultOptions())
	b, _ := GetBackend("push")
	run := func(src string) []string {
		n, err := parser.Parse(src, f)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		if err := b.Eval(env, n, func(v value.Value) error {
			s, _ := env.FormatScalar(v)
			out = append(out, s)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	run("j := 42")
	got := run("j + 1")
	if len(got) != 1 || got[0] != "43" {
		t.Errorf("alias did not persist across evals: %v", got)
	}
	env.ClearAliases()
	n, _ := parser.Parse("j", f)
	if err := b.Eval(env, n, func(value.Value) error { return nil }); err == nil {
		t.Error("alias survived ClearAliases")
	}
}

// dfs over a hand-built list in fake RAM, without the micro-C substrate.
func TestDfsOverFakeList(t *testing.T) {
	f := newFake(t)
	a := f.A
	node := a.NewStruct("node", false)
	_ = a.SetFields(node, []ctype.FieldSpec{
		{Name: "value", Type: a.Int},
		{Name: "next", Type: a.Ptr(node)},
	})
	f.Structs["node"] = node
	// Three nodes.
	addrs := make([]uint64, 3)
	for i := range addrs {
		addr, err := f.AllocTargetSpace(node.Size(), node.Align())
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
	}
	for i, addr := range addrs {
		_ = f.PutTargetBytes(addr, value.MakeInt(a.Int, int64(100+i)).Bytes())
		next := uint64(0)
		if i+1 < len(addrs) {
			next = addrs[i+1]
		}
		_ = f.PutTargetBytes(addr+4, value.MakePtr(a.Ptr(node), next).Bytes())
	}
	head := f.MustVar("head", a.Ptr(node))
	_ = f.PutTargetBytes(head.Addr, value.MakePtr(a.Ptr(node), addrs[0]).Bytes())

	for _, b := range BackendNames() {
		got, err := evalStrings(t, f, b, "head-->next->value")
		if err != nil {
			t.Fatalf("[%s] %v", b, err)
		}
		want := []string{
			"head->value = 100",
			"head->next->value = 101",
			"head->next->next->value = 102",
		}
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Errorf("[%s] dfs: %q", b, got)
		}
	}
}

// TestCycleDetection: a cyclic list terminates only with detection on (the
// paper's implementation loops; ours errors at the expansion cap).
func TestCycleDetection(t *testing.T) {
	f := newFake(t)
	a := f.A
	node := a.NewStruct("node", false)
	_ = a.SetFields(node, []ctype.FieldSpec{
		{Name: "value", Type: a.Int},
		{Name: "next", Type: a.Ptr(node)},
	})
	f.Structs["node"] = node
	n1, _ := f.AllocTargetSpace(node.Size(), node.Align())
	n2, _ := f.AllocTargetSpace(node.Size(), node.Align())
	_ = f.PutTargetBytes(n1+4, value.MakePtr(a.Ptr(node), n2).Bytes())
	_ = f.PutTargetBytes(n2+4, value.MakePtr(a.Ptr(node), n1).Bytes()) // cycle
	head := f.MustVar("chead", a.Ptr(node))
	_ = f.PutTargetBytes(head.Addr, value.MakePtr(a.Ptr(node), n1).Bytes())

	n, _ := parser.Parse("#/(chead-->next)", f)
	// Faithful mode: must hit the expansion cap.
	opts := DefaultOptions()
	opts.MaxExpand = 100
	b, _ := GetBackend("push")
	env := NewEnv(f, opts)
	if err := b.Eval(env, n, func(value.Value) error { return nil }); err == nil {
		t.Error("cycle terminated without detection")
	}
	// Extension mode: exactly two nodes.
	opts.CycleDetect = true
	env = NewEnv(f, opts)
	var got []string
	if err := b.Eval(env, n, func(v value.Value) error {
		s, _ := env.FormatScalar(v)
		got = append(got, s)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "2" {
		t.Errorf("cycle-detected count = %v, want [2]", got)
	}
}

// TestSelfStepPathBounded: a --> step that yields the node itself ("_") has
// the whole path as its step name, so each level would double the path's
// symbolic text. The path stops at value.MaxPathSym and the walk ends at the
// expansion cap, on every backend.
func TestSelfStepPathBounded(t *testing.T) {
	f := listFake(t)
	n, err := parser.Parse("head-->_", f)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.MaxExpand = 100
	for _, name := range BackendNames() {
		b, _ := GetBackend(name)
		env := NewEnv(f, opts)
		longest, values := 0, 0
		err := b.Eval(env, n, func(v value.Value) error {
			values++
			longest = max(longest, len(env.text(v.Sym)))
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "exceeded 100 nodes") {
			t.Errorf("[%s] err = %v, want the expansion cap", name, err)
		}
		if values != 100 || longest > 2*value.MaxPathSym {
			t.Errorf("[%s] %d values, longest path %d bytes; want 100 values within %d bytes",
				name, values, longest, 2*value.MaxPathSym)
		}
	}
}
