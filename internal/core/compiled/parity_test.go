// Package compiled_test holds the operator-family parity table that was
// written for the compiled backend. That backend is gone; the table now
// holds the two remaining evaluators, push and the paper-faithful machine,
// to the same results on every operator family.
package compiled_test

import (
	"errors"
	"fmt"
	"testing"

	"duel/internal/core"
	"duel/internal/ctype"
	"duel/internal/dbgif"
	"duel/internal/duel/parser"
	"duel/internal/duel/value"
	"duel/internal/fakedbg"
	"duel/internal/mem"
)

// buildDebuggee is the differential fixture: int x[10], a 5-node list at
// head, a native function twice(k) = 2*k.
func buildDebuggee(t *testing.T) *fakedbg.Fake {
	t.Helper()
	f := fakedbg.New(ctype.ILP32, 1<<16)
	a := f.A

	vals := []int64{3, -1, 4, -1, 5, 9, -2, 6, 0, 7}
	x := f.MustVar("x", a.ArrayOf(a.Int, len(vals)))
	for i, v := range vals {
		if err := f.PutTargetBytes(x.Addr+uint64(4*i), mem.EncodeUint(uint64(v), 4)); err != nil {
			t.Fatal(err)
		}
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
	list := []int64{2, 7, 1, 7, 8}
	next := uint64(0)
	for i := len(list) - 1; i >= 0; i-- {
		addr, err := f.AllocTargetSpace(node.Size(), node.Align())
		if err != nil {
			t.Fatal(err)
		}
		if err := f.PutTargetBytes(addr, mem.EncodeUint(uint64(list[i]), 4)); err != nil {
			t.Fatal(err)
		}
		if err := f.PutTargetBytes(addr+4, mem.EncodeUint(next, 4)); err != nil {
			t.Fatal(err)
		}
		next = addr
	}
	if err := f.PutTargetBytes(head.Addr, mem.EncodeUint(next, 4)); err != nil {
		t.Fatal(err)
	}

	ft := a.FuncOf(a.Int, []ctype.Type{a.Int}, false)
	f.Vars["twice"] = dbgif.VarInfo{Name: "twice", Type: ft, Addr: 0x9000}
	f.Funcs[0x9000] = func(args []dbgif.Value) (dbgif.Value, error) {
		v := 2 * mem.DecodeInt(args[0].Bytes)
		return dbgif.Value{Type: a.Int, Bytes: mem.EncodeUint(uint64(v), 4)}, nil
	}
	return f
}

// runBackend evaluates src on one backend against a fresh debuggee,
// returning the emitted (sym, bytes, type) trace, the final counters, and
// the evaluation error.
func runBackend(t *testing.T, backendName, src string, opts core.Options) ([]string, core.Counters, error) {
	t.Helper()
	b, err := core.GetBackend(backendName)
	if err != nil {
		t.Fatal(err)
	}
	d := buildDebuggee(t)
	e := core.NewEnv(d, opts)
	n, err := parser.Parse(src, d)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	var trace []string
	everr := core.Eval(e, b, n, func(v value.Value) error {
		trace = append(trace, fmt.Sprintf("%s | % x | %v | %v", e.Ctx.Syms.String(v.Sym), v.Bytes(), v.Type, v.Err()))
		return nil
	})
	return trace, e.Counters(), everr
}

// parityQueries cover every operator family: constants, unary and
// binary C operators, ?-comparisons, logic, control, ranges (closed,
// prefix, open, fused with index), with/arrow scoping, dfs and bfs
// expansion, select, until, indexof, define, reductions, assignment and
// compound assignment, declarations (bail path) and calls (bail path).
var parityQueries = []string{
	"1+2*3",
	"-x[0] + !x[1]",
	"(char)65",
	"sizeof(int)",
	"sizeof(x[0])",
	"x[..10]",
	"x[2..5]",
	"x[..10] >? 4",
	"x[..10] @ (_ < 0)",
	"x[0..]@(_==5)",
	"+/x[..10]",
	"#/(x[..10] != 0)",
	"&&/(x[..10] > -10)",
	"||/(x[..10] > 8)",
	"x[..10] && 1",
	"x[0] || x[1]",
	"if (x[0] > 0) x[1] else x[2]",
	"x[0] > 0 ? x[1] : x[2]",
	"(1..3) + (5,9)",
	"(x[..10] >? 0)[[2]]",
	"(0..9)[[2..4]]",
	"head-->next->value",
	"#/(head-->next)",
	"head-->next->(value ==? 7)",
	"head-->>next->value",
	"x[..10] # i => i",
	"y := x[2..5]",
	"twice(x[2..5])",
	"int z; z = 42; z",
	"x[0] = 11",
	"x[0] += 4",
	"x[0]++",
	"--x[0]",
	"(1..3) => 7",
	"while (x[0] > 0) x[0]--",
	"frames()",
	"(struct node *) 0 == 0",
	"{x[3]}",
	"\"abc\"[1]",
	// A constant right operand, under every C binary operator and
	// ?-comparison (push's one-callback-per-evaluation path), a fault raised by the apply, and
	// a step budget that runs out on the constant's step (the doubled
	// group makes push's prefix six steps, then it steps the range and
	// the constant once each per element, so step 26 is the constant's).
	"x[..10] + 3",
	"x[..10] - 3",
	"x[..10] * 3",
	"x[..10] / 2",
	"x[..10] % 3",
	"x[..10] << 2",
	"x[..10] >> 1",
	"x[..10] & 6",
	"x[..10] | 1",
	"x[..10] ^ 5",
	"x[..10] < 4",
	"x[..10] > 4",
	"x[..10] <= 4",
	"x[..10] >= 4",
	"x[..10] == 7",
	"x[..10] != 7",
	"x[..10] <? 4",
	"x[..10] <=? 4",
	"x[..10] >=? 4",
	"x[..10] ==? 9",
	"x[..10] !=? 9",
	"head-->next->value >? 1",
	"x[..10] / 0",
	"((0..20)) + 3",
	"((0..20)) >? 3",
	// Poisoned left operands: under ErrorValues (see errorValueQueries)
	// each element is an error value that the apply must pass through.
	"((int *) 16)[..3] + 1",
	"((int *) 16)[..3] >? 0",
	"((struct node *) 16)->value == 2",
}

// errorValueQueries run with Options.ErrorValues, so their faults become
// error values instead of aborting the query.
var errorValueQueries = map[string]bool{
	"((int *) 16)[..3] + 1":            true,
	"((int *) 16)[..3] >? 0":           true,
	"((struct node *) 16)->value == 2": true,
}

// parityOptions returns the options src runs with; budget > 0 sets
// MaxSteps.
func parityOptions(src string, budget int) core.Options {
	opts := core.DefaultOptions()
	opts.ErrorValues = errorValueQueries[src]
	opts.MaxSteps = budget
	return opts
}

// TestCompiledParityWithPush holds machine to push at the finest grain
// available: identical emitted value traces (symbolic string, raw bytes, C
// type), identical error text, and identical target traffic (MemReads,
// TargetReads, TargetBytes). The evaluation counters Values, Applies,
// SymOps and Lookups are not compared: machine counts the paper's
// per-node resumptions, push counts one application per operator.
func TestCompiledParityWithPush(t *testing.T) {
	for _, src := range parityQueries {
		t.Run(src, func(t *testing.T) {
			wantTrace, wantCtrs, wantErr := runBackend(t, "push", src, parityOptions(src, 0))
			gotTrace, gotCtrs, gotErr := runBackend(t, "machine", src, parityOptions(src, 0))
			if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
				t.Fatalf("error diverged: push %v, machine %v", wantErr, gotErr)
			}
			if len(wantTrace) != len(gotTrace) {
				t.Fatalf("trace length diverged: push %d, machine %d\npush: %v\nmachine: %v",
					len(wantTrace), len(gotTrace), wantTrace, gotTrace)
			}
			for i := range wantTrace {
				if wantTrace[i] != gotTrace[i] {
					t.Errorf("value %d diverged:\n push:    %s\n machine: %s", i, wantTrace[i], gotTrace[i])
				}
			}
			if wantCtrs.MemReads != gotCtrs.MemReads ||
				wantCtrs.TargetReads != gotCtrs.TargetReads || wantCtrs.TargetBytes != gotCtrs.TargetBytes {
				t.Errorf("target traffic diverged:\n push:    %+v\n machine: %+v", wantCtrs, gotCtrs)
			}
		})
	}
}

// TestCompiledStepLimitParity runs every parity query under a small step
// budget. The two evaluators count steps differently, so the budget may
// cut them at different points, but each must keep the containment
// contract: it either finishes with the full trace, or stops with the
// step-limit error after emitting a prefix of the full trace.
func TestCompiledStepLimitParity(t *testing.T) {
	for _, src := range parityQueries {
		t.Run(src, func(t *testing.T) {
			fullTrace, _, fullErr := runBackend(t, "push", src, parityOptions(src, 0))
			for _, backend := range []string{"push", "machine"} {
				gotTrace, _, gotErr := runBackend(t, backend, src, parityOptions(src, 25))
				if gotErr == nil || fmt.Sprint(gotErr) == fmt.Sprint(fullErr) {
					if fmt.Sprint(gotErr) != fmt.Sprint(fullErr) || fmt.Sprint(gotTrace) != fmt.Sprint(fullTrace) {
						t.Fatalf("%s finished under the budget with a different outcome:\n got:  %v %v\n want: %v %v",
							backend, gotTrace, gotErr, fullTrace, fullErr)
					}
					continue
				}
				var se *core.StepLimitError
				if !errors.As(gotErr, &se) {
					t.Fatalf("%s: error %v is neither the full run's error %v nor a step-limit error", backend, gotErr, fullErr)
				}
				if len(gotTrace) > len(fullTrace) || fmt.Sprint(gotTrace) != fmt.Sprint(fullTrace[:len(gotTrace)]) {
					t.Fatalf("%s: partial trace is not a prefix of the full trace:\n got:  %v\n full: %v",
						backend, gotTrace, fullTrace)
				}
			}
		})
	}
}
