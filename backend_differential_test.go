package duel_test

import (
	"bytes"
	"strings"
	"testing"

	"duel"
	"duel/internal/core"
	"duel/internal/ctype"
	"duel/internal/dbgif"
	"duel/internal/debugger"
	"duel/internal/fakedbg"
	"duel/internal/mem"
	"duel/internal/scenarios"
	"duel/internal/target"
)

// TestSubstrateDifferential builds the same debuggee twice — once on the
// flat-RAM fakedbg, once on a target.Process behind the mini-debugger — and
// runs identical DUEL queries on both. The paper's portability claim is that
// DUEL needs nothing beyond the narrow dbgif surface, so two unrelated
// substrates must produce byte-identical output.
func TestSubstrateDifferential(t *testing.T) {
	queries := []string{
		"x[..10] >? 4",
		"+/x[..10]",
		"x[..10] @ (_ < 0)",
		"head-->next->value",
		"#/(head-->next)",
		"head-->next->(value ==? 7)",
		"twice(x[2..5])",
		"(struct node *) 0 == 0",
	}
	for _, backend := range []string{"push", "machine"} {
		t.Run(backend, func(t *testing.T) {
			fake := execQueries(t, backend, buildFakeDebuggee(t), queries)
			real := execQueries(t, backend, buildTargetDebuggee(t), queries)
			for i, q := range queries {
				if fake[i] != real[i] {
					t.Errorf("query %q:\n fakedbg:\n%s\n target:\n%s", q, indent(fake[i]), indent(real[i]))
				}
			}
			// Spot-check one absolute expectation so a shared bug in both
			// substrates cannot hide behind the agreement check.
			if want := "head-->next[[3]]->value = 7\n"; !strings.Contains(fake[3], want) {
				t.Errorf("list walk output:\n%s\n does not contain %q", indent(fake[3]), want)
			}
		})
	}
}

// The shared debuggee: int x[10], a 5-node linked list at head, and a
// function twice(k) = 2*k. The fakedbg build also has add(a, b) = a+b, a
// two-parameter function for the evaluator fuzzer's calls.
var (
	diffArray = []int64{3, -1, 4, -1, 5, 9, -2, 6, 0, 7}
	diffList  = []int64{2, 7, 1, 7, 8}
)

func buildFakeDebuggee(t *testing.T) dbgif.Debugger {
	t.Helper()
	f := fakedbg.New(ctype.ILP32, 1<<16)
	a := f.A

	x := f.MustVar("x", a.ArrayOf(a.Int, len(diffArray)))
	for i, v := range diffArray {
		mustPut(t, f, x.Addr+uint64(4*i), mem.EncodeUint(uint64(v), 4))
	}

	node := a.NewStruct("node", false)
	if err := a.SetFields(node, []ctype.FieldSpec{
		{Name: "value", Type: a.Int},
		{Name: "next", Type: a.Ptr(node)},
	}); err != nil {
		t.Fatal(err)
	}
	f.Structs["node"] = node

	head := f.MustVar("head", a.Ptr(node))
	next := uint64(0)
	for i := len(diffList) - 1; i >= 0; i-- {
		addr, err := f.AllocTargetSpace(node.Size(), node.Align())
		if err != nil {
			t.Fatal(err)
		}
		mustPut(t, f, addr, mem.EncodeUint(uint64(diffList[i]), 4))
		mustPut(t, f, addr+4, mem.EncodeUint(next, 4))
		next = addr
	}
	mustPut(t, f, head.Addr, mem.EncodeUint(next, 4))

	ft := a.FuncOf(a.Int, []ctype.Type{a.Int}, false)
	f.Vars["twice"] = dbgif.VarInfo{Name: "twice", Type: ft, Addr: 0x9000}
	f.Funcs[0x9000] = func(args []dbgif.Value) (dbgif.Value, error) {
		v := 2 * mem.DecodeInt(args[0].Bytes)
		return dbgif.Value{Type: a.Int, Bytes: mem.EncodeUint(uint64(v), 4)}, nil
	}
	ft2 := a.FuncOf(a.Int, []ctype.Type{a.Int, a.Int}, false)
	f.Vars["add"] = dbgif.VarInfo{Name: "add", Type: ft2, Addr: 0x9100}
	f.Funcs[0x9100] = func(args []dbgif.Value) (dbgif.Value, error) {
		v := mem.DecodeInt(args[0].Bytes) + mem.DecodeInt(args[1].Bytes)
		return dbgif.Value{Type: a.Int, Bytes: mem.EncodeUint(uint64(v), 4)}, nil
	}
	return f
}

func buildTargetDebuggee(t *testing.T) dbgif.Debugger {
	t.Helper()
	p := target.MustNewProcess(target.DefaultConfig)
	a := p.Arch

	x, err := p.DefineGlobal("x", a.ArrayOf(a.Int, len(diffArray)))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range diffArray {
		if err := p.PokeInt(x.Addr+uint64(4*i), a.Int, v); err != nil {
			t.Fatal(err)
		}
	}

	node := p.DeclareStruct("node", false)
	if err := a.SetFields(node, []ctype.FieldSpec{
		{Name: "value", Type: a.Int},
		{Name: "next", Type: a.Ptr(node)},
	}); err != nil {
		t.Fatal(err)
	}

	head, err := p.DefineGlobal("head", a.Ptr(node))
	if err != nil {
		t.Fatal(err)
	}
	next := int64(0)
	for i := len(diffList) - 1; i >= 0; i-- {
		addr, err := p.Alloc(node.Size(), node.Align())
		if err != nil {
			t.Fatal(err)
		}
		if err := p.PokeInt(addr, a.Int, diffList[i]); err != nil {
			t.Fatal(err)
		}
		if err := p.PokeInt(addr+4, a.Ptr(node), next); err != nil {
			t.Fatal(err)
		}
		next = int64(addr)
	}
	if err := p.PokeInt(head.Addr, a.Ptr(node), next); err != nil {
		t.Fatal(err)
	}

	err = p.DefineFunc(&target.Func{
		Name:   "twice",
		Type:   a.FuncOf(a.Int, []ctype.Type{a.Int}, false),
		Params: []string{"k"},
		Native: func(_ *target.Process, args []target.Datum) (target.Datum, error) {
			v := 2 * mem.DecodeInt(args[0].Bytes)
			return target.Datum{Type: a.Int, Bytes: mem.EncodeUint(uint64(v), 4)}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return debugger.New(p)
}

func mustPut(t *testing.T, d dbgif.Debugger, addr uint64, b []byte) {
	t.Helper()
	if err := d.PutTargetBytes(addr, b); err != nil {
		t.Fatal(err)
	}
}

// execQueries runs each query in its own session (no alias leakage) and
// returns the printed output per query.
func execQueries(t *testing.T, backend string, d dbgif.Debugger, queries []string) []string {
	t.Helper()
	opts := duel.DefaultOptions()
	opts.Backend = backend
	out := make([]string, len(queries))
	for i, q := range queries {
		ses, err := duel.NewSession(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ses.Exec(&buf, q); err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
		out[i] = buf.String()
	}
	return out
}

// TestMemCacheDifferential runs the differential query list on every backend
// with the page cache on and off. The cache must be observationally
// transparent: byte-identical output AND an identical engine-side read trace
// (the evaluator issues the same GetTargetBytes requests either way; only the
// host round-trips below the accessor may differ).
func TestMemCacheDifferential(t *testing.T) {
	queries := []string{
		"x[..10] >? 4",
		"+/x[..10]",
		"x[..10] @ (_ < 0)",
		"head-->next->value",
		"#/(head-->next)",
		"head-->next->(value ==? 7)",
		"twice(x[2..5])",
		"(struct node *) 0 == 0",
	}
	for _, backend := range []string{"push", "machine"} {
		t.Run(backend, func(t *testing.T) {
			off, offCtrs := execQueriesCounted(t, backend, false, queries)
			on, onCtrs := execQueriesCounted(t, backend, true, queries)
			for i, q := range queries {
				if off[i] != on[i] {
					t.Errorf("query %q:\n cache off:\n%s\n cache on:\n%s", q, indent(off[i]), indent(on[i]))
				}
				if offCtrs[i].TargetReads != onCtrs[i].TargetReads || offCtrs[i].TargetBytes != onCtrs[i].TargetBytes {
					t.Errorf("query %q: read trace diverged: off reads=%d bytes=%d, on reads=%d bytes=%d",
						q, offCtrs[i].TargetReads, offCtrs[i].TargetBytes, onCtrs[i].TargetReads, onCtrs[i].TargetBytes)
				}
				// Cache off, every engine read is a host round-trip.
				if offCtrs[i].HostReads != offCtrs[i].TargetReads {
					t.Errorf("query %q: cache-off host reads %d != engine reads %d",
						q, offCtrs[i].HostReads, offCtrs[i].TargetReads)
				}
			}
		})
	}
}

// execQueriesCounted is execQueries plus the per-query evaluation counters,
// with the memory cache toggled explicitly.
func execQueriesCounted(t *testing.T, backend string, cache bool, queries []string) ([]string, []core.Counters) {
	t.Helper()
	opts := duel.DefaultOptions()
	opts.Backend = backend
	opts.Eval.MemCache = cache
	out := make([]string, len(queries))
	ctrs := make([]core.Counters, len(queries))
	for i, q := range queries {
		ses, err := duel.NewSession(buildFakeDebuggee(t), opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ses.Exec(&buf, q); err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
		out[i] = buf.String()
		ctrs[i] = ses.Counters()
	}
	return out, ctrs
}

// TestPaperCatalogAllBackends runs the full paper catalog on every evaluator
// backend; they must agree line-for-line (experiment T7's correctness leg).
// The removed backend names chan and compiled must be refused for every
// entry with an error that lists the remaining backends, and the refusal
// must leave the scenario image untouched: the entry then runs on the same
// image with the default backend and prints the catalog's output.
func TestPaperCatalogAllBackends(t *testing.T) {
	for _, backend := range []string{"machine", "chan", "compiled"} {
		t.Run(backend, func(t *testing.T) {
			for _, e := range scenarios.Catalog {
				t.Run(e.ID, func(t *testing.T) {
					d, out := buildEntry(t, e)
					run := backend
					if _, err := core.GetBackend(backend); err != nil {
						opts := duel.DefaultOptions()
						opts.Backend = backend
						_, err := duel.NewSession(d, opts)
						want := `unknown evaluator backend "` + backend + `" (have [machine push])`
						if err == nil || !strings.Contains(err.Error(), want) {
							t.Fatalf("backend %q: NewSession error %v, want %q", backend, err, want)
						}
						run = duel.DefaultOptions().Backend
					}
					lines, stdout := runEntryOn(t, d, out, run, e)
					if got, want := strings.Join(lines, "\n"), strings.Join(e.Want, "\n"); got != want {
						t.Errorf("result lines:\n got:\n%s\n want:\n%s", indent(got), indent(want))
					}
					if stdout != e.WantStdout {
						t.Errorf("target stdout:\n got  %q\n want %q", stdout, e.WantStdout)
					}
				})
			}
		})
	}
}
