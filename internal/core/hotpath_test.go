package core

import (
	"errors"
	"testing"

	"duel/internal/ctype"
	"duel/internal/duel/parser"
	"duel/internal/duel/value"
	"duel/internal/fakedbg"
)

// allocFake is an LP64 debuggee with int x[1000] (values i%7-3, so three
// in seven pass ">? 0"), a 1000-node list head of struct node {int value;
// struct node *next}, and a symbol-table-shaped struct sym *arr[256] whose
// bucket i chains i%4 nodes of struct sym {int v; struct sym *next} with v
// running 0, 1, 2, ... over all 384 nodes.
func allocFake(t testing.TB) *fakedbg.Fake {
	t.Helper()
	const n = 1000
	f := fakedbg.New(ctype.LP64, 1<<16)
	a := f.A
	x := f.MustVar("x", a.ArrayOf(a.Int, n))
	for i := 0; i < n; i++ {
		if err := f.PutTargetBytes(x.Addr+uint64(4*i), value.MakeInt(a.Int, int64(i%7-3)).Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	addList(t, f, n, 0)

	sym := a.NewStruct("sym", false)
	if err := a.SetFields(sym, []ctype.FieldSpec{
		{Name: "v", Type: a.Int},
		{Name: "next", Type: a.Ptr(sym)},
	}); err != nil {
		t.Fatal(err)
	}
	next, _ := sym.Field("next")
	arr := f.MustVar("arr", a.ArrayOf(a.Ptr(sym), 256))
	v := 0
	for i := 0; i < 256; i++ {
		link := arr.Addr + uint64(8*i)
		for j := 0; j < i%4; j++ {
			addr, err := f.AllocTargetSpace(sym.Size(), sym.Align())
			if err != nil {
				t.Fatal(err)
			}
			if err := f.PutTargetBytes(link, value.MakePtr(a.Ptr(sym), addr).Bytes()); err != nil {
				t.Fatal(err)
			}
			if err := f.PutTargetBytes(addr, value.MakeInt(a.Int, int64(v)).Bytes()); err != nil {
				t.Fatal(err)
			}
			v++
			link = addr + uint64(next.Off)
		}
	}
	return f
}

// TestPushAllocsPerElement pins the heap allocations of push's generator
// hot path per element, so a closure that captures a whole Value again, a
// per-left-value, per-scope or per-node inner callback (binary and
// ?-operators, -> and -->), per-root --> state, per-element symbolic text
// or a per-read copy of the target's bytes fails here. Reads fetch into the
// value engine's own buffer, so what is left is per evaluation, not per
// element: measured 0.009 for the scan, 0.011 for the list walk and 0.034
// for the table (about 22 allocations per evaluation, mostly the derivation
// store's chunks). The bound of 0.05 leaves room for 10 more allocations
// per evaluation of the table and 40 of the others, far below one per
// element. While each read copied the bytes the substrate returned, the
// scan and the list walk took 1.0 and the table 1.9; with symbolic text
// built per element the list walk and the table each took 3.9; before the
// capture rules the scan took 2.0 and the list walk 8.9.
func TestPushAllocsPerElement(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts: skipped under -race")
	}
	cases := []struct {
		query string
		elems int     // elements the query's generators step through
		max   float64 // allocations per element
	}{
		{"x[..1000] >? 0", 1000, 0.05},
		{"head-->next->value", 1000, 0.05},
		// The symtab-scan shape: 256 buckets, 384 chained nodes, two reads
		// per node.
		{"(arr[..256] !=? 0)-->next->v >? 380", 256 + 384, 0.05},
	}
	f := allocFake(t)
	for _, c := range cases {
		n, err := parser.Parse(c.query, f)
		if err != nil {
			t.Fatal(err)
		}
		env := NewEnv(f, DefaultOptions())
		values := 0
		run := func() {
			values = 0
			if err := (pushBackend{}).Eval(env, n, func(value.Value) error { values++; return nil }); err != nil {
				t.Fatal(err)
			}
		}
		run()
		perElem := testing.AllocsPerRun(20, run) / float64(c.elems)
		t.Logf("%s: %d values, %.3f allocs per element", c.query, values, perElem)
		if perElem > c.max {
			t.Errorf("%s: %.3f allocations per element, want <= %g", c.query, perElem, c.max)
		}
	}
}

// TestConstOperandCounts pins the evaluation counters of queries whose
// right operand is a constant: one step and one symbolic atom per left
// value. The figures are the ones push produced before its inner callbacks
// were hoisted out of the per-left-value loop.
func TestConstOperandCounts(t *testing.T) {
	cases := []struct {
		query  string
		values int
		want   Counters
	}{
		{"x[..1000] >? 0", 428, Counters{Values: 2005, Applies: 2000, SymOps: 3002, Lookups: 1, MemReads: 1001}},
		{"x[..1000] + 3", 1000, Counters{Values: 2005, Applies: 2000, SymOps: 4002, Lookups: 1, MemReads: 1001}},
		{"head-->next->value >? 990", 9, Counters{Values: 3004, Applies: 1000, SymOps: 5001, Lookups: 2001, MemReads: 2001}},
	}
	f := allocFake(t)
	for _, c := range cases {
		n, err := parser.Parse(c.query, f)
		if err != nil {
			t.Fatal(err)
		}
		env := NewEnv(f, DefaultOptions())
		values := 0
		if err := (pushBackend{}).Eval(env, n, func(value.Value) error { values++; return nil }); err != nil {
			t.Fatal(err)
		}
		got := env.Num
		got.TargetReads, got.TargetBytes, got.HostReads, got.HostBytes = 0, 0, 0, 0
		if values != c.values || got != c.want {
			t.Errorf("%s: %d values, counters %+v; want %d values, %+v", c.query, values, got, c.values, c.want)
		}
	}
}

// TestConstOperandStepLimit cuts a constant-operand query on the
// constant's own step: the doubled group makes the prefix six steps, then
// the range and the constant take one step each per element, so step 26 is
// the tenth element's constant: nine elements (0..8) have been applied.
func TestConstOperandStepLimit(t *testing.T) {
	f := allocFake(t)
	for _, c := range []struct {
		query  string
		values int
	}{
		{"((0..20)) + 3", 9},   // 0+3 .. 8+3
		{"((0..20)) >=? 3", 6}, // 3 .. 8
	} {
		q := c.query
		n, err := parser.Parse(q, f)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.MaxSteps = 25
		env := NewEnv(f, opts)
		var got []string
		err = (pushBackend{}).Eval(env, n, func(v value.Value) error { got = append(got, env.text(v.Sym)); return nil })
		var se *StepLimitError
		if !errors.As(err, &se) || se.Expr != "3" || len(got) != c.values {
			t.Errorf("%s: values %v, error %v; want %d values, then the step limit at the constant 3", q, got, err, c.values)
		}
	}
}

// TestSymtabShapeCounts pins the work of the symtab-scan query shape on
// both drivers, so that a cheaper per-element path (an in-place load, a
// cached constant or member atom, one type pass for ->) still counts every
// step, lookup, application, symbolic composition and read it did before.
// machine also counts each node's NOVALUE steps.
func TestSymtabShapeCounts(t *testing.T) {
	const query = "(arr[..256] !=? 0)-->next->v >? 380"
	want := map[string]Counters{
		"push":    {Values: 1673, Lookups: 769, Applies: 896, SymOps: 2690, MemReads: 1217, TargetReads: 1216},
		"machine": {Values: 4494, Lookups: 769, Applies: 896, SymOps: 2690, MemReads: 1217, TargetReads: 1216},
	}
	f := allocFake(t)
	n, err := parser.Parse(query, f)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range BackendNames() {
		be, _ := GetBackend(b)
		env := NewEnv(f, DefaultOptions())
		values := 0
		if err := be.Eval(env, n, func(value.Value) error { values++; return nil }); err != nil {
			t.Fatal(err)
		}
		all := env.Counters()
		c := Counters{Values: all.Values, Lookups: all.Lookups, Applies: all.Applies,
			SymOps: all.SymOps, MemReads: all.MemReads, TargetReads: all.TargetReads}
		if values != 3 || c != want[b] {
			t.Errorf("[%s] %s: %d values, counters %+v; want 3, %+v", b, query, values, c, want[b])
		}
	}
}
