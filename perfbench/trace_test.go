package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"duel"
	"duel/internal/ctype"
	"duel/internal/dbgif"
	"duel/internal/dbgif/dbgiftest"
	"duel/internal/debugger"
	"duel/internal/fakedbg"
	"duel/internal/faultdbg"
	"duel/internal/memio"
	"duel/internal/microc"
	"duel/internal/scenarios"
	"duel/internal/serve"
	"duel/internal/target"
)

// conformanceTarget builds the dbgiftest fixture as a micro-C process
// behind the substrate wrapper.
func conformanceTarget(t *testing.T) dbgiftest.Fixture {
	t.Helper()
	p := target.MustNewProcess(target.Config{Model: ctype.ILP32, DataSize: 1 << 18, HeapSize: 1 << 16, StackSize: 1 << 14})
	d := debugger.New(p)
	if _, err := microc.Load(p, d, `
typedef int myint;
enum color { RED, BLUE = 6 };
struct pair { int x, y; };

int g = 42;
int arr[4] = {1, 2, 3, 4};
char *msg = "hi";
struct pair pt = {7, 8};

int twice(int n) { return 2 * n; }
`); err != nil {
		t.Fatal(err)
	}
	get := func(name string) dbgif.VarInfo {
		vi, ok := d.GetTargetVariable(name)
		if !ok {
			t.Fatalf("missing %q", name)
		}
		return vi
	}
	pair, ok := d.LookupStruct("pair", false)
	if !ok {
		t.Fatal("missing struct pair")
	}
	return dbgiftest.Fixture{D: traced(d), G: get("g"), Arr: get("arr"), Msg: get("msg"), Pt: get("pt"), Fn: get("twice"), Pair: pair}
}

// traced wraps d in the benchmark's substrate wrapper, with its tracer
// recording a request so every span path runs.
func traced(d dbgif.Debugger) dbgif.Debugger {
	tr := newTracer()
	tr.startRequest()
	return tr.substrate(d, tr.newLane())
}

// TestTracedDebuggerConformance runs the narrow-interface battery through
// the wrapper.
func TestTracedDebuggerConformance(t *testing.T) {
	dbgiftest.Run(t, conformanceTarget(t))
}

// TestTracedDebuggerIsTransparent checks that capabilities, read-only
// detection, fault classification and Interrupt/Resume behave the same with
// and without the wrapper.
func TestTracedDebuggerIsTransparent(t *testing.T) {
	t.Run("capabilities", func(t *testing.T) {
		for _, ro := range []bool{false, true} {
			f := fakedbg.New(ctype.ILP32, 1<<12)
			f.ReadOnly = ro
			for name, d := range map[string]dbgif.Debugger{
				"traced(fake)":           traced(f),
				"accessor(traced(fake))": memio.New(traced(f), memio.Config{}),
				"traced(injector(fake))": traced(faultdbg.New(f, faultdbg.Plan{})),
			} {
				if _, ok := d.(dbgif.Wrapper); !ok {
					t.Errorf("%s: not a dbgif.Wrapper", name)
				}
				if _, ok := d.(dbgif.Interrupter); !ok {
					t.Errorf("%s: Interrupter dropped", name)
				}
				if dbgif.CanWrite(d) != dbgif.CanWrite(f) || dbgif.CanAlloc(d) != dbgif.CanAlloc(f) ||
					dbgif.CanCall(d) != dbgif.CanCall(f) || dbgif.ReadOnly(d) != dbgif.ReadOnly(f) {
					t.Errorf("%s (read-only %v): capabilities differ from the bare substrate", name, ro)
				}
			}
		}
	})

	t.Run("faults", func(t *testing.T) {
		for _, k := range []faultdbg.Kind{faultdbg.Unmapped, faultdbg.Short, faultdbg.Transient} {
			plan := faultdbg.Plan{Seed: 1, Rates: map[faultdbg.Kind]float64{k: 1}}
			classify := func(wrap bool) string {
				f := fakedbg.New(ctype.ILP32, 1<<12)
				g := f.MustVar("g", f.A.Int)
				var d dbgif.Debugger = faultdbg.New(f, plan)
				if wrap {
					d = traced(d)
				}
				_, err := memio.New(d, memio.Config{RetryBackoff: time.Microsecond}).GetTargetBytes(g.Addr, 4)
				var mf *memio.Fault
				errors.As(err, &mf)
				return fmt.Sprintf("transient=%v exhausted=%v injected=%v fault=%+v",
					memio.IsTransient(err), memio.IsRetryExhausted(err), errors.Is(err, faultdbg.ErrInjected), mf)
			}
			if bare, wrapped := classify(false), classify(true); bare != wrapped {
				t.Errorf("%v: classified as\n  %s\nbare, but\n  %s\nwrapped", k, bare, wrapped)
			}
		}
	})

	t.Run("interrupt", func(t *testing.T) {
		for _, wrap := range []bool{false, true} {
			f := fakedbg.New(ctype.ILP32, 1<<12)
			inj := faultdbg.New(f, faultdbg.Plan{Seed: 1, Rates: map[faultdbg.Kind]float64{faultdbg.CallHang: 1}, Hang: time.Minute})
			var d dbgif.Debugger = inj
			if wrap {
				d = traced(d)
			}
			done := make(chan error, 1)
			go func() {
				_, err := d.CallTargetFunc(0x9000, nil)
				done <- err
			}()
			// Interrupt releases a hang whether it lands before or
			// during the call.
			dbgif.Interrupt(d)
			select {
			case err := <-done:
				if !errors.Is(err, faultdbg.ErrInterrupted) {
					t.Errorf("wrapped=%v: interrupted call returned %v", wrap, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("wrapped=%v: Interrupt did not release a hung call", wrap)
			}
			dbgif.Resume(d)
			inj.Disarm()
			if _, err := d.CallTargetFunc(0x9000, nil); errors.Is(err, faultdbg.ErrInterrupted) {
				t.Errorf("wrapped=%v: call still interrupted after Resume", wrap)
			}
		}
	})
}

// TestTracedSessionOutputUnchanged runs a paper query on a session over the
// wrapped substrate and the bare one.
func TestTracedSessionOutputUnchanged(t *testing.T) {
	d, _, err := scenarios.Build(scenarios.Symtab, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := func(d dbgif.Debugger) []duel.Result {
		rs, err := duel.MustNewSession(d, duel.DefaultOptions()).Eval("(hash[..1024] !=? 0)-->next->scope >? 1")
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	bare, wrapped := lines(run(d)), lines(run(traced(d)))
	if fmt.Sprint(bare) != fmt.Sprint(wrapped) || len(bare) == 0 {
		t.Errorf("output differs:\n bare    %v\n wrapped %v", bare, wrapped)
	}
}

func lines(rs []duel.Result) []string {
	var out []string
	for _, r := range rs {
		out = append(out, r.Line())
	}
	return out
}

// TestSelfTime checks that a span's self time is its duration minus the
// union of its children, including children that overlap.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.on = true
	tr.spans = []span{
		{parent: -1, layer: layerFleet, start: 1, end: 101},
		{parent: 0, layer: layerCore, start: 11, end: 51}, // overlaps the next
		{parent: 0, layer: layerCore, start: 31, end: 61}, // union with it: 11..61
		{parent: 1, layer: layerSubstrate, start: 21, end: 26},
		{parent: 0, layer: layerCore, start: 81, end: 91},
	}
	tr.endRequest()
	want := map[layer]int64{layerFleet: 100 - 50 - 10, layerCore: (40 - 5) + 30 + 10, layerSubstrate: 5}
	for ly, w := range want {
		if tr.self[ly] != w {
			t.Errorf("%s self = %d, want %d", layerNames[ly], tr.self[ly], w)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, q2, q3 := quartiles(append([]float64(nil), c.xs...))
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
				break
			}
		}
	}
}

// TestTracedServeSessionsMatchRegister checks that a traced serve node,
// whose sessions the benchmark builds itself, evaluates as the product's
// Register-built node does: same lines, and the same step budget cutting
// off a query that would otherwise run for millions of steps.
func TestTracedServeSessionsMatchRegister(t *testing.T) {
	d, _, err := scenarios.Build(scenarios.Symtab, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, tracedSrv := newServer("t", d, nil), newServer("t", d, newTracer())
	defer func() {
		if err := shutdown(plain, tracedSrv); err != nil {
			t.Error(err)
		}
	}()
	for _, q := range []string{
		"(hash[..1024] !=? 0)-->next->scope >? 1",
		"#/((1..2100) * (1..2100))",
	} {
		run := func(srv *serve.Server) string {
			rs, err := srv.Eval(context.Background(), "t", q)
			return fmt.Sprint(lines(rs), err)
		}
		want, got := run(plain), run(tracedSrv)
		if got != want {
			t.Errorf("%s:\n Register %.300s\n traced   %.300s", q, want, got)
		}
		if q[0] == '#' && !strings.Contains(want, fmt.Sprintf("exceeded %d values", serve.DefaultMaxSteps)) {
			t.Errorf("%s: want the step budget to stop it, got %.300s", q, want)
		}
	}
}
