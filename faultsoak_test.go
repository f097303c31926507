package duel_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"duel"
	"duel/internal/core"
	"duel/internal/dbgif"
	"duel/internal/debugger"
	"duel/internal/faultdbg"
	"duel/internal/scenarios"
)

// soakTimeout is the per-run evaluation deadline. It is generous because the
// soak also runs under -race in CI; the overrun assertion below allows
// additional scheduling slack on top.
const soakTimeout = 2 * time.Second

// mutates reports whether a DUEL query writes target memory, by finding an
// "=" that is not part of a comparison (==, !=, <=, >=, ==?, !=?) or an
// alias definition (:=). Mutating entries are excluded from the soak so one
// scenario image can be shared by every run.
func mutates(q string) bool {
	for _, op := range []string{"==", "!=", ">=", "<=", ":=", "=?"} {
		q = strings.ReplaceAll(q, op, "")
	}
	return strings.Contains(q, "=")
}

// soakEntries returns the catalog entries whose queries leave the target
// untouched.
func soakEntries() []scenarios.Entry {
	var out []scenarios.Entry
	for _, e := range scenarios.Catalog {
		ok := true
		for _, q := range e.Queries {
			if mutates(q) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, e)
		}
	}
	return out
}

// soakTargets lazily builds one debuggee per scenario; the non-mutating
// entries let every run share it.
type soakTargets map[string]*debugger.Debugger

func (st soakTargets) get(t *testing.T, name string) *debugger.Debugger {
	t.Helper()
	if d, ok := st[name]; ok {
		return d
	}
	d, _, err := scenarios.Build(name, nil)
	if err != nil {
		t.Fatalf("building %q: %v", name, err)
	}
	st[name] = d
	return d
}

// runEntry evaluates all queries of one entry in one fresh session, returning
// the concatenated output and the first error.
func soakRun(e scenarios.Entry, d dbgif.Debugger, backend string, opts duel.Options) (string, error) {
	opts.Backend = backend
	ses, err := duel.NewSession(d, opts)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	for _, q := range e.Queries {
		if err := ses.Exec(&buf, q); err != nil {
			return buf.String(), err
		}
	}
	return buf.String(), nil
}

// TestFaultSoakEmptyScheduleTransparent: with an empty fault schedule the
// injector-wrapped session must agree byte-for-byte — output and error —
// with the unwrapped one, on every backend and every soak entry.
func TestFaultSoakEmptyScheduleTransparent(t *testing.T) {
	targets := soakTargets{}
	for _, e := range soakEntries() {
		for _, backend := range core.BackendNames() {
			d := targets.get(t, e.Scenario)
			wantOut, wantErr := soakRun(e, d, backend, duel.DefaultOptions())
			gotOut, gotErr := soakRun(e, faultdbg.New(d, faultdbg.Plan{}), backend, duel.DefaultOptions())
			if gotOut != wantOut {
				t.Errorf("%s/%s: output diverges under empty schedule:\n--- unwrapped\n%s--- wrapped\n%s", e.ID, backend, wantOut, gotOut)
			}
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Errorf("%s/%s: error diverges: %v vs %v", e.ID, backend, gotErr, wantErr)
			}
		}
	}
}

// TestFaultSoak runs the catalog's non-mutating entries under random seeded
// fault schedules on every backend — at least 500 runs. No schedule may
// panic the evaluator, leak a goroutine, or overrun the deadline; errors are
// expected and must be ordinary typed errors.
func TestFaultSoak(t *testing.T) {
	entries := soakEntries()
	if len(entries) == 0 {
		t.Fatal("no non-mutating catalog entries")
	}
	targets := soakTargets{}
	backends := core.BackendNames()

	// Warm up every scenario (and the runtime) before counting goroutines.
	for _, e := range entries {
		targets.get(t, e.Scenario)
	}
	before := runtime.NumGoroutine()

	runs := 0
	for seed := int64(0); runs < 510; seed++ {
		e := entries[int(seed)%len(entries)]
		for _, backend := range backends {
			plan := faultdbg.Plan{
				Seed: seed,
				Rates: map[faultdbg.Kind]float64{
					faultdbg.Unmapped:  0.01 * float64(seed%3),
					faultdbg.Short:     0.005,
					faultdbg.Transient: 0.02,
					faultdbg.Latency:   0.01,
					faultdbg.AllocFail: 0.02,
					faultdbg.CallFail:  0.2,
					faultdbg.CallHang:  0.1,
				},
				Latency: 200 * time.Microsecond,
				Hang:    20 * time.Millisecond,
				After:   seed % 7,
				Limit:   64,
			}
			opts := duel.DefaultOptions()
			opts.Eval.Timeout = soakTimeout
			opts.Eval.MaxSteps = 1 << 20
			opts.Eval.ErrorValues = seed%2 == 0

			inj := faultdbg.New(targets.get(t, e.Scenario), plan)
			start := time.Now()
			_, err := soakRun(e, inj, backend, opts)
			elapsed := time.Since(start)

			if elapsed > soakTimeout+8*time.Second {
				t.Fatalf("%s/%s seed %d: run overran the deadline: %v", e.ID, backend, seed, elapsed)
			}
			var pe *core.PanicError
			if errors.As(err, &pe) {
				t.Fatalf("%s/%s seed %d: internal panic surfaced: %v", e.ID, backend, seed, err)
			}
			runs++
		}
	}
	t.Logf("%d soak runs", runs)

	// Everything spawned during the soak must have unwound.
	runtime.GC()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked during soak: %d before, %d after\n%s",
				before, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestErrorValuesAcceptance is the tentpole's acceptance case: with error
// containment on, the paper's garbage-pointer walk reports the symbolic
// error for the bad element and still yields every element after it.
func TestErrorValuesAcceptance(t *testing.T) {
	d, _, err := scenarios.Build(scenarios.BadPtr, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range core.BackendNames() {
		t.Run(backend, func(t *testing.T) {
			opts := duel.DefaultOptions()
			opts.Backend = backend
			opts.Eval.ErrorValues = true
			ses := duel.MustNewSession(d, opts)
			results, err := ses.Eval("ptr[..99]->val")
			if err != nil {
				t.Fatalf("contained walk still aborted: %v", err)
			}
			if len(results) != 99 {
				t.Fatalf("got %d results, want 99", len(results))
			}
			bad := results[48].Line()
			if bad != "ptr[48]->val = <unmapped address 0x16820>" {
				t.Errorf("bad element line = %q", bad)
			}
			// Every element after the fault still arrives, with its value.
			for i := 49; i < 99; i++ {
				want := fmt.Sprintf("ptr[%d]->val = %d", i, i)
				if got := results[i].Line(); got != want {
					t.Fatalf("element %d after the fault: got %q, want %q", i, got, want)
				}
			}
		})
	}

	// Faithful mode (the default): same walk aborts with the paper's
	// symbolic error message.
	ses := duel.MustNewSession(d)
	_, err = ses.Eval("ptr[..99]->val")
	if err == nil {
		t.Fatal("faithful mode did not abort on the garbage pointer")
	}
	for _, want := range []string{"Illegal memory reference", "ptr[48]", "0x16820"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("faithful error %q lacks %q", err, want)
		}
	}
}
