package core

import (
	"errors"
	"strings"
	"testing"

	"duel/internal/ctype"
	"duel/internal/dbgif"
	"duel/internal/duel/parser"
	"duel/internal/duel/value"
	"duel/internal/fakedbg"
)

// newStructFake builds a fake with a struct instance s{a,b}, a global named
// "a" (to test shadowing), and an alias-friendly int k.
func newStructFake(t testing.TB) *fakedbg.Fake {
	t.Helper()
	f := fakedbg.New(ctype.ILP32, 1<<16)
	arch := f.A
	st, err := arch.StructOf("pair",
		ctype.FieldSpec{Name: "a", Type: arch.Int},
		ctype.FieldSpec{Name: "b", Type: arch.Int},
	)
	if err != nil {
		t.Fatal(err)
	}
	f.Structs["pair"] = st
	s := f.MustVar("s", st)
	_ = f.PutTargetBytes(s.Addr, value.MakeInt(arch.Int, 10).Bytes())
	_ = f.PutTargetBytes(s.Addr+4, value.MakeInt(arch.Int, 20).Bytes())
	ga := f.MustVar("a", arch.Int)
	_ = f.PutTargetBytes(ga.Addr, value.MakeInt(arch.Int, 999).Bytes())
	f.MustVar("k", arch.Int)
	sp := f.MustVar("sp", arch.Ptr(st))
	_ = f.PutTargetBytes(sp.Addr, value.MakePtr(arch.Ptr(st), s.Addr).Bytes())
	return f
}

func evalOn(t *testing.T, f *fakedbg.Fake, backend, src string) ([]string, error) {
	t.Helper()
	return evalStrings(t, f, backend, src)
}

func wantAll(t *testing.T, f func(tb testing.TB) *fakedbg.Fake, src string, want ...string) {
	t.Helper()
	for _, b := range BackendNames() {
		fake := f(t)
		got, err := evalOn(t, fake, b, src)
		if err != nil {
			t.Fatalf("[%s] %q: %v", b, src, err)
		}
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Errorf("[%s] %q:\n got  %q\n want %q", b, src, got, want)
		}
	}
}

func newStructFakeTB(tb testing.TB) *fakedbg.Fake { return newStructFake(tb) }

// TestWithScopeShadowing: inside a with scope, fields shadow globals and
// aliases of the same name.
func TestWithScopeShadowing(t *testing.T) {
	wantAll(t, newStructFakeTB, "a", "a = 999")            // global
	wantAll(t, newStructFakeTB, "s.a", "s.a = 10")         // field shadows it
	wantAll(t, newStructFakeTB, "sp->a", "sp->a = 10")     // through the pointer
	wantAll(t, newStructFakeTB, "s.(a+b)", "s.(a+b) = 30") // both fields in scope
	// An alias of the same name is also shadowed inside the scope.
	wantAll(t, newStructFakeTB, "b := 5; s.b", "s.b = 20")
	// The scope stays open while the with expression's value is being
	// consumed (the paper's coroutine semantics), so even the RIGHT
	// operand of an enclosing binary sees the fields: both b's below are
	// the field (20), not the alias (5).
	wantAll(t, newStructFakeTB, "b := 5; s.b + b", "s.b+b = 40")
	// Fully consumed scopes close: after a sequence point the alias wins.
	wantAll(t, newStructFakeTB, "b := 5; (s.b; 0) ; b", "b = 5")
}

// TestWithScopeOpenDuringAssignment pins the paper's coroutine semantics:
// the with scope is still open while the assignment's right side evaluates,
// so a right side naming a field reads the field.
func TestWithScopeOpenDuringAssignment(t *testing.T) {
	// s.a = b: b resolves to the FIELD b (20), not a global/alias.
	wantAll(t, newStructFakeTB, "b := 5; (s.a = b); s.a", "s.a = 20")
}

// TestUnderscoreNesting: _ refers to the nearest with operand.
func TestUnderscoreNesting(t *testing.T) {
	wantAll(t, newStructFakeTB, "sp->(if (_ != 0) 1)", "sp->1 = 1")
	wantAll(t, newStructFakeTB, "s.(sp->(if (_ != 0) a))", "s.sp->a = 10")
}

// TestAndYieldsRightOperandValues pins the paper's ANDAND semantics: e1&&e2
// produces e2's values for each non-zero e1 value.
func TestAndYieldsRightOperandValues(t *testing.T) {
	wantAll(t, newStructFakeTB, "(1,0,2) && (7,8)", "7", "8", "7", "8")
	wantAll(t, newStructFakeTB, "0 && 7")
	// || passes non-zero left values through and substitutes for zeros.
	wantAll(t, newStructFakeTB, "(3,0) || (7,8)", "3", "7", "8")
}

// TestWhileRestartsBody pins the paper's WHILE: once e2 has produced all of
// its values, while starts over.
func TestWhileRestartsBody(t *testing.T) {
	wantAll(t, newStructFakeTB, "k = 0; while (k < 3) (k += 1; 9)", "9", "9", "9")
	// A while whose condition is a generator requires ALL values non-zero.
	wantAll(t, newStructFakeTB, "k = 0; while ((1, k < 2)) (k += 1; {k})", "1", "2")
}

// TestGeneratorLHSAssignment: assignments distribute over generator lvalues.
func TestGeneratorLHSAssignment(t *testing.T) {
	f := newFake(t)
	for _, b := range BackendNames() {
		if _, err := evalStrings(t, f, b, "x[0..2] += 100 ;"); err != nil {
			t.Fatalf("[%s] %v", b, err)
		}
	}
	// Every backend ran: each added 100 to x[0..2].
	got, err := evalStrings(t, newFake(t), "push", "x[0..2]")
	if err != nil {
		t.Fatal(err)
	}
	_ = got
	f2 := newFake(t)
	if _, err := evalStrings(t, f2, "push", "x[0..2] += 100 ;"); err != nil {
		t.Fatal(err)
	}
	got, _ = evalStrings(t, f2, "push", "x[1]")
	if len(got) != 1 || got[0] != "x[1] = 110" {
		t.Errorf("compound over generator: %v", got)
	}
}

// TestRangeAtLargestLong: a range ends after the largest long instead of
// wrapping to negative values and running on.
func TestRangeAtLargestLong(t *testing.T) {
	wantAll(t, newStructFakeTB, "#/(9223372036854775806..9223372036854775807)", "2")
	wantAll(t, newStructFakeTB, "#/(9223372036854775806..)", "2")
	wantAll(t, newStructFakeTB, "#/(9223372036854775805..9223372036854775806)", "2")
	wantAll(t, newStructFakeTB, "#/(-2..1)", "4")
}

// TestAssignmentChains: right-associative assignment.
func TestAssignmentChains(t *testing.T) {
	wantAll(t, newStructFakeTB, "int p; int q; p = q = 7; p+q", "p+q = 14")
}

// TestUntilInsideImply: mid-sequence abandonment (until) must fully reset
// node state so re-entry starts fresh — the regression trap for the machine
// backend's explicit state.
func TestUntilInsideImply(t *testing.T) {
	wantAll(t, newStructFakeTB, "(1..2) => ((10..20)@13)",
		"10", "11", "12", "10", "11", "12")
	wantAll(t, newStructFakeTB, "(1..2) => ((5..9)[[1,3]])",
		"6", "8", "6", "8")
	wantAll(t, newStructFakeTB, "(1..2) => #/((1..10)@4)", "3", "3")
	wantAll(t, newStructFakeTB, "(1..2) => sizeof (7..9)", "4", "4")
}

// TestSelectOfSelect nests sequence manipulators.
func TestSelectOfSelect(t *testing.T) {
	wantAll(t, newStructFakeTB, "((10..30)[[0..9]])[[2,4]]", "12", "14")
}

// TestConditionalInWith: the paper's x->(if (scope > 5) name) shape against
// the pair struct.
func TestConditionalInWith(t *testing.T) {
	wantAll(t, newStructFakeTB, "s.(if (a < b) b else a)", "s.b = 20")
	wantAll(t, newStructFakeTB, "s.(a >? 5, b <? 5)", "s.a = 10")
}

// TestMemErrorType: illegal references surface as *value.MemError through
// any backend.
func TestMemErrorType(t *testing.T) {
	for _, b := range BackendNames() {
		f := newStructFake(t)
		_, err := evalStrings(t, f, b, "((struct pair *)8)->a")
		if err == nil {
			t.Fatalf("[%s] invalid deref succeeded", b)
		}
		var me *value.MemError
		if !errors.As(err, &me) {
			t.Errorf("[%s] error type %T: %v", b, err, err)
		}
	}
}

// TestParserErrorType: parse failures carry positions.
func TestParserErrorType(t *testing.T) {
	f := newStructFake(t)
	_, err := parser.Parse("s.(", f)
	var pe *parser.Error
	if !errors.As(err, &pe) {
		t.Fatalf("error type %T", err)
	}
}

// TestDeepGeneratorNesting stresses recursive evaluation depth.
func TestDeepGeneratorNesting(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("1")
	for i := 0; i < 200; i++ {
		sb.WriteString("+(0,1)")
	}
	// 1+(0,1)+(0,1)+... has 2^200 combinations; take the first few via
	// select to keep it finite.
	src := "(" + sb.String() + ")[[0..3]]"
	for _, b := range BackendNames() {
		f := newStructFake(t)
		got, err := evalOn(t, f, b, src)
		if err != nil {
			t.Fatalf("[%s] %v", b, err)
		}
		if len(got) != 4 {
			t.Errorf("[%s] got %d values", b, len(got))
		}
	}
}

// TestSymbolicParenthesization checks precedence-driven parens in output.
func TestSymbolicParenthesization(t *testing.T) {
	wantAll(t, newStructFakeTB, "(k = 2; (k+1)*3)", "(k+1)*3 = 9")
	wantAll(t, newStructFakeTB, "k = 2; k*3+1", "k*3+1 = 7")
	wantAll(t, newStructFakeTB, "k = 6; k-(2-1)", "k-(2-1) = 5")
	wantAll(t, newStructFakeTB, "-(1,2)*3", "-1*3 = -3", "-2*3 = -6")
}

// TestCScopingOption: with Options.CScoping, bare-name field access does not
// leak a scope into sibling operands, while complex with-expressions keep
// the paper semantics.
func TestCScopingOption(t *testing.T) {
	for _, backend := range BackendNames() {
		f := newStructFake(t)
		b, _ := GetBackend(backend)
		opts := DefaultOptions()
		opts.CScoping = true
		env := NewEnv(f, opts)
		run := func(src string) []string {
			n, err := parser.Parse(src, f)
			if err != nil {
				t.Fatal(err)
			}
			var out []string
			if err := b.Eval(env, n, func(v value.Value) error {
				s, _ := env.FormatScalar(v)
				if env.text(v.Sym) != "" && env.text(v.Sym) != s {
					s = env.text(v.Sym) + " = " + s
				}
				out = append(out, s)
				return nil
			}); err != nil {
				t.Fatalf("[%s] %q: %v", backend, src, err)
			}
			return out
		}
		// Bare name: C semantics — the alias b (5) wins on the right.
		got := run("b := 5; s.b + b")
		if len(got) != 1 || got[0] != "s.b+b = 25" {
			t.Errorf("[%s] C scoping bare name: %q", backend, got)
		}
		// Complex e2 still opens the scope (both b's are fields).
		got = run("b := 5; s.(b + b)")
		if len(got) != 1 || got[0] != "s.(b+b) = 40" {
			t.Errorf("[%s] complex with under CScoping: %q", backend, got)
		}
		// "_" still works as the operand.
		got = run("sp->_ == sp")
		if len(got) != 1 || !strings.HasSuffix(got[0], "= 1") {
			t.Errorf("[%s] underscore under CScoping: %q", backend, got)
		}
	}
}

// TestCallCartesianProduct pins the paper's rule that a function with
// generator arguments is called for all combinations of values — including
// the machine backend's odometer implementation with three arguments.
func TestCallCartesianProduct(t *testing.T) {
	mk := func(tb testing.TB) *fakedbg.Fake {
		f := newStructFake(tb)
		a := f.A
		ft := a.FuncOf(a.Int, []ctype.Type{a.Int, a.Int, a.Int}, false)
		f.Vars["sum3"] = dbgif.VarInfo{Name: "sum3", Type: ft, Addr: 0x9100}
		f.Funcs[0x9100] = func(args []dbgif.Value) (dbgif.Value, error) {
			get := func(i int) int64 {
				return value.FromBytes(args[i].Type, args[i].Bytes).AsInt()
			}
			v := value.MakeInt(a.Int, 100*get(0)+10*get(1)+get(2))
			return dbgif.Value{Type: v.Type, Bytes: v.Bytes()}, nil
		}
		return f
	}
	wantAll(t, mk, "sum3(1..2, (3,4), 5)",
		"sum3(1, 3, 5) = 135", "sum3(1, 4, 5) = 145",
		"sum3(2, 3, 5) = 235", "sum3(2, 4, 5) = 245")
	// An empty generator argument yields no calls at all.
	wantAll(t, mk, "sum3(1..0, (3,4), 5)")
	// The middle argument restarts for every left value and the last for
	// every middle value.
	wantAll(t, mk, "#/(sum3(1..3, 1..4, 1..2))", "24")
	// A generator callee: the function is enumerated too.
	wantAll(t, mk, "(sum3, sum3)(1, 1, 1)", "sum3(1, 1, 1) = 111", "sum3(1, 1, 1) = 111")
	// Argument count mismatch errors.
	for _, b := range BackendNames() {
		if _, err := evalStrings(t, mk(t), b, "sum3(1, 2)"); err == nil {
			t.Errorf("[%s] short call accepted", b)
		}
	}
}

// TestWithStackBalanced: whatever abandons a suspended with mid-sequence
// (until, select, reductions, sizeof, errors), the name-resolution stack
// must end every evaluation empty — the push backend's pop on every return and
// machine backend's resetTree both guarantee it.
func TestWithStackBalanced(t *testing.T) {
	exprs := []string{
		"(s.(10,20))@15",           // until stops inside the with
		"(1,2)@(s.(0,a,b))",        // a stop condition abandoned inside its with
		"(s.(10,20,30))[[0]]",      // select abandons after index 0
		"#/(s.(a,b))",              // reduction drains fully
		"sizeof s.(a,b)",           // sizeof abandons after one value
		"&&/(s.(1,0,1))",           // early exit at the zero
		"(1..2) => (s.(a,b))[[0]]", // abandon then re-enter
		"s.(a,b)",                  // plain full drain
	}
	for _, backend := range BackendNames() {
		b, _ := GetBackend(backend)
		for _, src := range exprs {
			f := newStructFake(t)
			env := NewEnv(f, DefaultOptions())
			n, err := parser.Parse(src, f)
			if err != nil {
				t.Fatalf("parse %q: %v", src, err)
			}
			if err := b.Eval(env, n, func(value.Value) error { return nil }); err != nil {
				t.Fatalf("[%s] %q: %v", backend, src, err)
			}
			if len(env.withStack) != 0 {
				t.Errorf("[%s] %q left %d with-scopes pushed", backend, src, len(env.withStack))
			}
		}
		// Errors mid-with must also unwind (the next eval starts clean).
		f := newStructFake(t)
		env := NewEnv(f, DefaultOptions())
		n, _ := parser.Parse("s.(a / (a-a))", f)
		if err := b.Eval(env, n, func(value.Value) error { return nil }); err == nil {
			t.Fatalf("[%s] division by zero succeeded", backend)
		}
		n2, _ := parser.Parse("a", f)
		var got []string
		if err := b.Eval(env, n2, func(v value.Value) error {
			s, _ := env.FormatScalar(v)
			got = append(got, s)
			return nil
		}); err != nil {
			t.Fatalf("[%s] eval after error: %v", backend, err)
		}
		// "a" must resolve to the GLOBAL (999), not a leaked field scope.
		if len(got) != 1 || got[0] != "999" {
			t.Errorf("[%s] scope leaked across evals: %v", backend, got)
		}
	}
}

// TestMutationDuringSuspendedTraversal pins a consequence of the paper's
// lazy semantics: a store through a suspended --> traversal is visible to
// the rest of that same traversal (here it creates a cycle mid-walk, which
// faithful mode catches at the cap), while sequencing with ';' finishes the
// walk before the store.
func TestMutationDuringSuspendedTraversal(t *testing.T) {
	for _, backend := range BackendNames() {
		b, _ := GetBackend(backend)
		// Lazy: the traversal observes its own mutation. The store goes
		// through a node the walk has not yet expanded (children are
		// generated when a node is popped, per the paper's dfs), so the
		// new back edge is followed and faithful mode hits the cap.
		f := listFake(t)
		opts := DefaultOptions()
		opts.MaxExpand = 100
		env := NewEnv(f, opts)
		n, err := parser.Parse("(head-->next ==? head->next->next)->next->next = head ;", f)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Eval(env, n, func(value.Value) error { return nil }); err == nil {
			t.Errorf("[%s] in-flight cycle not caught at the expansion cap", backend)
		}
		// Sequenced: the walk completes first, then the store.
		f = listFake(t)
		env = NewEnv(f, opts)
		n, err = parser.Parse("last := head-->next ==? head->next->next->next; last->next = head ;", f)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Eval(env, n, func(value.Value) error { return nil }); err != nil {
			t.Errorf("[%s] sequenced store failed: %v", backend, err)
		}
		// The list is now a ring: cycle detection counts 4 nodes.
		opts2 := DefaultOptions()
		opts2.CycleDetect = true
		env = NewEnv(f, opts2)
		n, _ = parser.Parse("#/(head-->next)", f)
		var got []string
		if err := b.Eval(env, n, func(v value.Value) error {
			s, _ := env.FormatScalar(v)
			got = append(got, s)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != "4" {
			t.Errorf("[%s] ring count = %v", backend, got)
		}
	}
}

// errorFake is newStructFake plus sum3(int, int, int) = 100a+10b+c.
func errorFake(tb testing.TB) *fakedbg.Fake {
	f := newStructFake(tb)
	a := f.A
	ft := a.FuncOf(a.Int, []ctype.Type{a.Int, a.Int, a.Int}, false)
	f.Vars["sum3"] = dbgif.VarInfo{Name: "sum3", Type: ft, Addr: 0x9100}
	f.Funcs[0x9100] = func(args []dbgif.Value) (dbgif.Value, error) {
		return dbgif.Value{Type: a.Int, Bytes: value.MakeInt(a.Int, 0).Bytes()}, nil
	}
	return f
}

// TestErrorPaths pins the exact text of the evaluator's own errors on
// every driver. The drivers share one semantics, so a wrong message there
// shows up in no differential; this table is its oracle.
func TestErrorPaths(t *testing.T) {
	cases := []struct {
		src, want string
		maxOpen   int // Options.MaxOpenRange when non-zero
	}{
		{src: "k(1)", want: "duel: k is not a function (int)"},
		{src: "(s, s)(1)", want: "duel: s is not a function (struct pair)"},
		{src: "(1..3)[[s]]", want: "duel: [[...]] index s is not an integer (struct pair)"},
		{src: "(1..3)[[1.5]]", want: "duel: [[...]] index 1.5 is not an integer (double)"},
		{src: "(1..3)[[-1]]", want: "duel: [[...]] index -1 is negative"},
		{src: "frame(1, 2)", want: "duel: frame() takes exactly one argument"},
		{src: "frame()", want: "duel: frame() takes exactly one argument"},
		{src: "while (1) 0", want: "duel: loop exceeded 10 iterations", maxOpen: 10},
		{src: "for (;;) 0", want: "duel: loop exceeded 10 iterations", maxOpen: 10},
		{src: "1 = 2", want: "duel: 1 is not an lvalue"},
		{src: "(k, 3) += 1", want: "duel: 3 is not an lvalue"},
		{src: "sizeof (1..0)", want: "duel: sizeof operand produced no values"},
		{src: "sp-->a", want: "duel: --> step a is not a pointer (int)"},
		{src: "sp-->>b", want: "duel: --> step b is not a pointer (int)"},
		{src: "k-->a", want: "duel: k is not a pointer (int); cannot expand with -->"},
		{src: "+/s", want: "duel: +/ cannot sum values of type struct pair"},
		{src: "+/(1, sp)", want: "duel: +/ cannot sum values of type struct pair *"},
		{src: "1..2.5", want: "duel: range bound 2.5 is not an integer (double)"},
		{src: "..s", want: "duel: range bound s is not an integer (struct pair)"},
		{src: "sp..", want: "duel: range bound sp is not an integer (struct pair *)"},
		{src: "sum3(1, 2)", want: "duel: too few arguments in call to sum3 (2 < 3)"},
		// Arity is checked before any argument is converted: a struct
		// argument to a short call reports the arity, not the conversion.
		{src: "sum3(s)", want: "duel: too few arguments in call to sum3 (1 < 3)"},
	}
	for _, c := range cases {
		for _, b := range BackendNames() {
			f := errorFake(t)
			n, err := parser.Parse(c.src, f)
			if err != nil {
				t.Fatalf("parse %q: %v", c.src, err)
			}
			opts := DefaultOptions()
			if c.maxOpen != 0 {
				opts.MaxOpenRange = c.maxOpen
			}
			be, _ := GetBackend(b)
			err = be.Eval(NewEnv(f, opts), n, func(value.Value) error { return nil })
			if err == nil || err.Error() != c.want {
				t.Errorf("[%s] %q: error %v, want %q", b, c.src, err, c.want)
			}
		}
	}
}
