package duel_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"duel"
	"duel/internal/core"
	"duel/internal/faultdbg"
)

// FuzzEvalDifferential extends the parser fuzzer through the whole
// evaluation pipeline: any input the parser accepts is executed on both the
// production evaluator (push) and the paper-faithful reference (machine)
// against identical debuggees, and the two must agree on the printed output
// and the error, byte for byte. The input also chooses whether target
// faults are contained as error values (Options.Eval.ErrorValues) and, when
// faultSeed is non-zero, a seeded fault plan on the debuggee, so poisoned
// output and fault messages are compared too: both drivers issue the same
// target operations in the same order, so they meet the same faults. The one exception is the step limit: the
// backends count steps differently (machine steps on every eval call,
// NOVALUE returns included), so MaxSteps cuts them at different values, and
// a run the limit cut short must have printed a prefix of the other run's
// values. Run open-ended with
//
//	go test -run=NONE -fuzz=FuzzEvalDifferential .
//
// The seed corpus (FuzzParse's seeds plus catalog-style queries over the
// fixture's symbols x, head, twice, add) runs on every plain `go test`.
func FuzzEvalDifferential(f *testing.F) {
	seeds := []string{
		// Parser fuzzer seeds: mostly unresolvable symbols, exercising the
		// error paths.
		"x[..100] >? 0",
		"hash[0..1023]->scope = 0 ;",
		"L-->next#i->value ==? L-->next#j->value => if (i < j) L-->next[[i,j]]->value",
		"int i; for (i = 0; i < 1024; i++) (hash[i] !=? 0)->scope >? 5",
		`printf("%d %d, ", (3,4), 5..7)`,
		"s[0..999]@(_=='\\0')",
		"((1..9)*(1..9))[[52,74]]",
		"(struct symbol *)p",
		"a := b => {c}",
		"x#", "..", "-->", "[[", "?:", "0x", "'", `"`, "##",
		// Catalog-style queries over the fixture's symbols.
		"x[..10] >? 4",
		"+/x[..10]",
		"#/(x[..10] != 0)",
		"x[..10] @ (_ < 0)",
		"x[0..]@(_==5)",
		"head-->next->value",
		"head-->>next->value",
		"head-->next->(value ==? 7)",
		"twice(x[2..5])",
		"x[..10] # i => i",
		"y := x[2..5]",
		"int z; z = 42; z",
		"x[0] += 4",
		"while (x[0] > 0) x[0]--",
		"(x[..10] >? 0)[[2]]",
		"x[0] > 0 ? x[1] : x[2]",
		"(struct node *) 0 == 0",
		"{x[3]}",
		`"abc"[1]`,
		"sizeof(x)",
		"&x[3]",
		"*(&x[3])",
		// Regression seeds: the error text of the unbounded range and of
		// the --> expansion bound, the loop bound of a loop whose body
		// yields every iteration, an @ condition that stops at its first
		// non-zero value, a range bound wider than the target's long, and
		// a self-referencing --> step whose path must stay bounded.
		"0..",
		"x[0..!=0]",
		"x-->x",
		"for(;;)0",
		"0@(0..)",
		"7000000000..0",
		"head-->_",
		// A constant right operand of a binary or ?-operator, whose inner
		// callback push builds once per evaluation: a fault in the apply, poisoned left operands, and a
		// step budget that runs out on the constant's step (five prefix
		// steps, then two per element, so step 20001 is a constant's).
		"x[..10] / 0",
		"((int *) 16)[..3] + 1",
		"((int *) 16)[..3] >? 0",
		"(0..9999) + 3",
		"(0..9999) >? 3",
		// Calls of the two-parameter add: the cartesian product of two
		// generator arguments (machine's odometer), a struct argument to
		// a short call (arity is checked before conversion), a pointer
		// argument, and a short call.
		"add(x[..3], x[2..4])",
		"add(*head)",
		"add(head, 1)",
		"add(1)",
	}
	for _, op := range []string{"+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^",
		"<", ">", "<=", ">=", "==", "!=", "<?", ">?", "<=?", ">=?", "==?", "!=?"} {
		seeds = append(seeds, "x[..10] "+op+" 3")
	}
	for _, s := range seeds {
		f.Add(s, false, uint8(0))
	}
	// Poison and fault shapes: error values through -->, with and
	// arithmetic, faults in the middle of a list walk, a call and a scan.
	for _, s := range []string{
		"((int *) 16)[..3]-->next",
		"((struct node *) 16)-->next->value",
		"(((struct node *) 16), head)->value",
		"head-->next->value",
		"head-->next->(value ==? 7)",
		"x[..10] >? 4",
		"twice(x[2..5])",
		"#/(head-->next)",
	} {
		f.Add(s, true, uint8(0))
		for _, seed := range []uint8{1, 7} {
			f.Add(s, true, seed)
			f.Add(s, false, seed)
		}
	}
	f.Fuzz(func(t *testing.T, src string, errorValues bool, faultSeed uint8) {
		if len(src) > 512 {
			return
		}
		pushOut, pushErr := fuzzExec(t, "push", src, errorValues, faultSeed)
		machineOut, machineErr := fuzzExec(t, "machine", src, errorValues, faultSeed)
		pushCut, machineCut := stepLimited(pushErr), stepLimited(machineErr)
		var agree bool
		switch {
		case pushCut && machineCut:
			agree = strings.HasPrefix(pushOut, machineOut) || strings.HasPrefix(machineOut, pushOut)
		case pushCut:
			agree = strings.HasPrefix(machineOut, pushOut)
		case machineCut:
			agree = strings.HasPrefix(pushOut, machineOut)
		default:
			agree = pushOut == machineOut && fmt.Sprint(pushErr) == fmt.Sprint(machineErr)
		}
		if !agree {
			t.Errorf("transcript diverged for %q (ErrorValues %v, fault seed %d):\n push:\n%s error: %v\n machine:\n%s error: %v",
				src, errorValues, faultSeed, indent(pushOut), pushErr, indent(machineOut), machineErr)
		}
	})
}

// stepLimited reports whether err is the MaxSteps abort.
func stepLimited(err error) bool {
	var sl *core.StepLimitError
	return errors.As(err, &sl)
}

// fuzzExec runs src on one backend against a fresh fixture debuggee and
// returns the printed values and the terminal error, so a query that fails
// mid-stream still contributes its partial output to the comparison. The
// fakedbg allocator is deterministic, so both backends see identical
// addresses and transcripts are directly comparable. Safety
// limits are tightened (and the wall-clock watchdog disabled — it would
// make runs timing-dependent) so pathological inputs terminate by step
// count, not by timeout. A non-zero faultSeed puts a seeded fault plan
// between the session and the fixture: unmapped and short reads and failed
// target calls, none of them timed, so the schedule depends only on the
// sequence of operations.
func fuzzExec(t *testing.T, backend, src string, errorValues bool, faultSeed uint8) (string, error) {
	t.Helper()
	opts := duel.DefaultOptions()
	opts.Backend = backend
	opts.Eval.MaxSteps = 20000
	opts.Eval.MaxOpenRange = 4096
	opts.Eval.MaxExpand = 4096
	opts.Eval.Timeout = 0
	opts.Eval.ErrorValues = errorValues
	d := buildFakeDebuggee(t)
	if faultSeed != 0 {
		d = faultdbg.New(d, faultdbg.Plan{
			Seed: int64(faultSeed),
			Rates: map[faultdbg.Kind]float64{
				faultdbg.Unmapped: 0.05,
				faultdbg.Short:    0.02,
				faultdbg.CallFail: 0.2,
			},
		})
	}
	ses, err := duel.NewSession(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = ses.Exec(&buf, src)
	return buf.String(), err
}
