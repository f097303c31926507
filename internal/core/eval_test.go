package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"duel/internal/duel/parser"
	"duel/internal/duel/value"
	"duel/internal/fakedbg"
	"duel/internal/faultdbg"
)

// panicky wraps the fake and panics on every target read, simulating an
// internal bug below the evaluator.
type panicky struct {
	*fakedbg.Fake
}

func (p *panicky) FetchTargetBytes(addr uint64, dst []byte) error {
	panic("panicky: read of target memory")
}

// evalOn parses src and drives it through the hardened Eval boundary on the
// named backend, returning the produced lines and the final error.
func evalEnv(t *testing.T, env *Env, backend, src string) ([]string, error) {
	t.Helper()
	n, err := parser.Parse(src, env.Mem)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	b, err := GetBackend(backend)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	evalErr := Eval(env, b, n, func(v value.Value) error {
		s, ferr := env.FormatScalar(v)
		if ferr != nil {
			return ferr
		}
		if env.text(v.Sym) != "" && env.text(v.Sym) != s {
			s = env.text(v.Sym) + " = " + s
		}
		out = append(out, s)
		return nil
	})
	return out, evalErr
}

// TestEvalRecoversPanic: a panic anywhere under Eval — including inside a
// chan-backend producer goroutine — surfaces as a *PanicError naming the
// expression, never as a process crash.
func TestEvalRecoversPanic(t *testing.T) {
	for _, backend := range BackendNames() {
		t.Run(backend, func(t *testing.T) {
			f := newFake(t)
			env := NewEnv(&panicky{Fake: f}, DefaultOptions())
			_, err := evalEnv(t, env, backend, "x[2]+1")
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("error = %v, want *PanicError", err)
			}
			if pe.Expr == "" {
				t.Error("PanicError carries no expression")
			}
			if !strings.Contains(pe.Error(), "internal error") {
				t.Errorf("message %q does not say 'internal error'", pe.Error())
			}
		})
	}
}

// panicOnce panics on its first target read only.
type panicOnce struct {
	*fakedbg.Fake
	panicked bool
}

func (p *panicOnce) FetchTargetBytes(addr uint64, dst []byte) error {
	if !p.panicked {
		p.panicked = true
		panic("panicOnce: read of target memory")
	}
	return p.Fake.FetchTargetBytes(addr, dst)
}

// TestEvalAfterRecoveredPanic: a panic in the substrate leaves the session
// usable, so the memory accessor must not stay locked after it.
func TestEvalAfterRecoveredPanic(t *testing.T) {
	for _, backend := range BackendNames() {
		t.Run(backend, func(t *testing.T) {
			env := NewEnv(&panicOnce{Fake: newFake(t)}, DefaultOptions())
			n, err := parser.Parse("x[2]+1", env.Mem)
			if err != nil {
				t.Fatal(err)
			}
			b, err := GetBackend(backend)
			if err != nil {
				t.Fatal(err)
			}
			var pe *PanicError
			if err := Eval(env, b, n, func(value.Value) error { return nil }); !errors.As(err, &pe) {
				t.Fatalf("error = %v, want *PanicError", err)
			}
			// The second evaluation runs on its own goroutine so that a
			// locked accessor fails the test instead of hanging it.
			done := make(chan error, 1)
			go func() {
				done <- Eval(env, b, n, func(v value.Value) error {
					if v.AsInt() != 21 {
						return fmt.Errorf("x[2]+1 = %d, want 21", v.AsInt())
					}
					return nil
				})
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("after the panic: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the evaluation after a recovered panic hangs")
			}
		})
	}
}

// TestEvalStepLimit: MaxSteps aborts a runaway evaluation with a typed error
// naming the limit and the node being evaluated.
func TestEvalStepLimit(t *testing.T) {
	for _, backend := range BackendNames() {
		t.Run(backend, func(t *testing.T) {
			f := newFake(t)
			opts := DefaultOptions()
			opts.MaxSteps = 100
			env := NewEnv(f, opts)
			_, err := evalEnv(t, env, backend, "#/(0..1000000)")
			var se *StepLimitError
			if !errors.As(err, &se) {
				t.Fatalf("error = %v, want *StepLimitError", err)
			}
			if se.Limit != 100 {
				t.Errorf("limit = %d, want 100", se.Limit)
			}
		})
	}
}

// TestEvalTimeout: the watchdog aborts a long CPU-bound evaluation with a
// *TimeoutError well before it would complete on its own.
func TestEvalTimeout(t *testing.T) {
	for _, backend := range BackendNames() {
		t.Run(backend, func(t *testing.T) {
			f := newFake(t)
			opts := DefaultOptions()
			opts.Timeout = 30 * time.Millisecond
			env := NewEnv(f, opts)
			start := time.Now()
			_, err := evalEnv(t, env, backend, "#/(0..2000000000)")
			elapsed := time.Since(start)
			var te *TimeoutError
			if !errors.As(err, &te) {
				t.Fatalf("error = %v, want *TimeoutError", err)
			}
			if elapsed > 10*time.Second {
				t.Fatalf("timeout fired after %v", elapsed)
			}
			// The env must be reusable after a timeout.
			out, err := evalEnv(t, env, backend, "1+2")
			if err != nil || len(out) != 1 || !strings.HasSuffix(out[0], "= 3") {
				t.Fatalf("post-timeout eval = %v, %v", out, err)
			}
		})
	}
}

// TestEvalTimeoutReleasesWedgedCall: a target call that hangs inside the
// debugger is released by the watchdog's interrupt, so the deadline holds
// even when the time is lost below the interface, not in the evaluator.
func TestEvalTimeoutReleasesWedgedCall(t *testing.T) {
	for _, backend := range BackendNames() {
		t.Run(backend, func(t *testing.T) {
			f := newFake(t)
			inj := faultdbg.New(f, faultdbg.Plan{
				Rates: map[faultdbg.Kind]float64{faultdbg.CallHang: 1},
				Hang:  time.Minute,
			})
			opts := DefaultOptions()
			opts.Timeout = 50 * time.Millisecond
			env := NewEnv(inj, opts)
			start := time.Now()
			_, err := evalEnv(t, env, backend, "twice(3)")
			elapsed := time.Since(start)
			if err == nil {
				t.Fatal("wedged call succeeded")
			}
			var te *TimeoutError
			if !errors.As(err, &te) {
				t.Fatalf("error = %v, want *TimeoutError", err)
			}
			if elapsed > 10*time.Second {
				t.Fatalf("wedged call held the session for %v", elapsed)
			}
		})
	}
}

// TestErrorValuesContainment: with Opts.ErrorValues on, a faulted element
// yields a symbolic error value and the generator keeps producing; with it
// off, the same fault aborts the whole evaluation (the paper's behavior).
// With the page cache off each element is one host read, so the script
// faults the third element's read. With it on, the first host read fills
// the page holding all six elements; the script faults that fill and the
// exact read the accessor falls back to, so x[0] is poisoned, and the
// other elements are read one by one from the page found unfit to cache.
func TestErrorValuesContainment(t *testing.T) {
	for _, backend := range BackendNames() {
		t.Run(backend, func(t *testing.T) {
			for _, cache := range []bool{false, true} {
				t.Run(fmt.Sprintf("cache=%v", cache), func(t *testing.T) {
					testErrorValuesContainment(t, backend, cache)
				})
			}
		})
	}
}

func testErrorValuesContainment(t *testing.T, backend string, cache bool) {
	script := []faultdbg.ScriptEntry{{Op: 3, Kind: faultdbg.Unmapped}}
	if cache {
		script = []faultdbg.ScriptEntry{{Op: 1, Kind: faultdbg.Unmapped}, {Op: 2, Kind: faultdbg.Unmapped}}
	}
	f := newFake(t)
	inj := faultdbg.New(f, faultdbg.Plan{Script: script})

	opts := DefaultOptions()
	opts.MemCache = cache
	opts.ErrorValues = true
	env := NewEnv(inj, opts)
	out, err := evalEnv(t, env, backend, "x[..6]")
	if err != nil {
		t.Fatalf("contained eval failed: %v", err)
	}
	if len(out) != 6 {
		t.Fatalf("got %d lines, want all 6: %v", len(out), out)
	}
	poisoned := 0
	for _, line := range out {
		if strings.Contains(line, "<") && strings.Contains(line, "unmapped address") {
			poisoned++
		}
	}
	if poisoned != 1 {
		t.Fatalf("poisoned lines = %d, want exactly 1: %v", poisoned, out)
	}

	// Faithful mode: same schedule, evaluation aborts.
	inj.Arm(faultdbg.Plan{Script: script})
	opts.ErrorValues = false
	env = NewEnv(inj, opts)
	if _, err := evalEnv(t, env, backend, "x[..6]"); err == nil {
		t.Fatal("faithful mode swallowed the fault")
	}
}
