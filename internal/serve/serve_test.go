package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"duel"
	"duel/internal/core"
	"duel/internal/ctype"
	"duel/internal/dbgif"
	"duel/internal/fakedbg"
	"duel/internal/faultdbg"
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

// parityQueries is the 39-query server-path differential suite: everything
// a session answers directly, the server must answer identically.
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
}

// sesExec runs one query in a fresh session (matching the server's pooled,
// alias-free sessions) and returns its Exec output and error string.
func sesExec(t *testing.T, d dbgif.Debugger, src string) (string, string) {
	t.Helper()
	ses := duel.MustNewSession(d)
	var buf bytes.Buffer
	err := ses.Exec(&buf, src)
	return buf.String(), fmt.Sprint(err)
}

// checkNoLeak mirrors internal/core/chan_leak_test.go: run fn, then assert
// the goroutine count settles back near the starting level.
func checkNoLeak(t *testing.T, fn func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	fn()
	runtime.GC()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerDifferentialParity holds the server path to session semantics:
// running the 39-query parity suite in order through Server.Exec must
// produce byte-identical output (and identical error text) to fresh
// sessions evaluating the same order directly — mutations included. Then
// the read-only subset is blasted concurrently and every answer must still
// match. Run under -race this is the concurrency audit of the whole stack.
func TestServerDifferentialParity(t *testing.T) {
	checkNoLeak(t, func() {
		ref := buildDebuggee(t)
		srvTarget := buildDebuggee(t)
		srv := New(Config{Workers: 4})
		srv.Register("t", srvTarget)
		ctx := context.Background()

		for _, src := range parityQueries {
			wantOut, wantErr := sesExec(t, ref, src)
			var buf bytes.Buffer
			err := srv.Exec(ctx, "t", &buf, src)
			if buf.String() != wantOut {
				t.Errorf("%q: server output diverges:\n--- session\n%s--- server\n%s", src, wantOut, buf.String())
			}
			if fmt.Sprint(err) != wantErr {
				t.Errorf("%q: server error diverges: %v vs %s", src, err, wantErr)
			}
		}

		// The sequential pass mutated both fixtures identically; now blast
		// the queries that neither write the target nor leave session
		// state, all goroutines sharing the one target under read locks.
		// Classification uses the server's own narrowed, debugger-aware
		// walk, so builtin calls like frames() ride in the read-only set.
		var readOnly []string
		expect := make(map[string]string)
		ses := duel.MustNewSession(ref)
		for _, src := range parityQueries {
			n, err := ses.Parse(src)
			if err != nil {
				t.Fatalf("parse %q: %v", src, err)
			}
			if MutatesTargetFor(n, ref) || Pollutes(n) {
				continue
			}
			readOnly = append(readOnly, src)
			out, errs := sesExec(t, ref, src)
			expect[src] = out + "\nerr=" + errs
		}
		if len(readOnly) < 20 {
			t.Fatalf("read-only subset suspiciously small: %d queries", len(readOnly))
		}
		var hasFrames bool
		for _, src := range readOnly {
			hasFrames = hasFrames || src == "frames()"
		}
		if !hasFrames {
			t.Error("frames() missing from the read-only subset: builtin-call narrowing regressed")
		}

		// A stats poller races snapshots against the blast: every snapshot
		// must be internally consistent (a completed query was admitted
		// first) — the admission-ordering regression showed up exactly
		// here, as transient Completed > Admitted.
		errCh := make(chan string, 64)
		pollDone := make(chan struct{})
		var pollWg sync.WaitGroup
		pollWg.Add(1)
		go func() {
			defer pollWg.Done()
			for {
				select {
				case <-pollDone:
					return
				default:
				}
				st := srv.Stats()
				if st.Completed > st.Admitted {
					select {
					case errCh <- fmt.Sprintf("inconsistent stats snapshot: Completed %d > Admitted %d", st.Completed, st.Admitted):
					default:
					}
				}
			}
		}()

		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 3*len(readOnly); i++ {
					src := readOnly[(g+i)%len(readOnly)]
					var buf bytes.Buffer
					err := srv.Exec(ctx, "t", &buf, src)
					got := buf.String() + "\nerr=" + fmt.Sprint(err)
					if got != expect[src] {
						select {
						case errCh <- fmt.Sprintf("%q diverged concurrently:\n--- want\n%s\n--- got\n%s", src, expect[src], got):
						default:
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(pollDone)
		pollWg.Wait()
		close(errCh)
		for msg := range errCh {
			t.Error(msg)
		}

		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatalf("clean shutdown returned %v", err)
		}
		st := srv.Stats()
		if st.Admitted == 0 || st.Completed != st.Admitted {
			t.Errorf("stats out of balance: %+v", st)
		}
	})
}

// TestOverloadSheds: with one worker wedged and a one-deep queue occupied,
// the next query must shed immediately with ErrOverloaded — not block, not
// deadlock.
func TestOverloadSheds(t *testing.T) {
	checkNoLeak(t, func() {
		f := buildDebuggee(t)
		started := make(chan struct{}, 8)
		release := make(chan struct{})
		ft := f.A.FuncOf(f.A.Int, []ctype.Type{f.A.Int}, false)
		f.Vars["slow"] = dbgif.VarInfo{Name: "slow", Type: ft, Addr: 0x9100}
		f.Funcs[0x9100] = func(args []dbgif.Value) (dbgif.Value, error) {
			started <- struct{}{}
			<-release
			return dbgif.Value{Type: f.A.Int, Bytes: mem.EncodeUint(1, 4)}, nil
		}

		srv := New(Config{Workers: 1, QueueDepth: 1})
		srv.Register("t", f)
		ctx := context.Background()

		wedged := make(chan error, 1)
		go func() {
			_, err := srv.Eval(ctx, "t", "slow(1)")
			wedged <- err
		}()
		<-started // the worker is now inside the target call

		queued := make(chan error, 1)
		go func() {
			_, err := srv.Eval(ctx, "t", "x[0]")
			queued <- err
		}()
		// Wait for the second query to be admitted into the queue.
		for deadline := time.Now().Add(5 * time.Second); srv.Stats().Admitted < 2; {
			if time.Now().After(deadline) {
				t.Fatal("second query never admitted")
			}
			time.Sleep(time.Millisecond)
		}

		if _, err := srv.Eval(ctx, "t", "x[1]"); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("overloaded submit: got %v, want ErrOverloaded", err)
		}

		close(release)
		if err := <-wedged; err != nil {
			t.Fatalf("wedged query failed: %v", err)
		}
		if err := <-queued; err != nil {
			t.Fatalf("queued query failed: %v", err)
		}
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		if st := srv.Stats(); st.Shed != 1 {
			t.Errorf("Shed = %d, want 1 (%+v)", st.Shed, st)
		}
	})
}

// fakeClock is the injectable serving clock (queue deadlines, health probe
// cadence).
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestHealthHardDownLifecycle pins how the default health settings handle a
// target that fails every read, on a pinned clock: each failed query moves
// the score 1/8 of the way to 0, so the 6th infra failure browns the target
// out (score 0.449) and the 11th quarantines it (0.230). Quarantined, a query
// fails fast without touching the target; one probe per ProbeInterval gets
// through, and a clean one restores service.
func TestHealthHardDownLifecycle(t *testing.T) {
	checkNoLeak(t, func() {
		f := buildDebuggee(t)
		inj := faultdbg.New(f, faultdbg.Plan{
			Rates: map[faultdbg.Kind]float64{faultdbg.Transient: 1},
		})
		clk := &fakeClock{t: time.Unix(1_000_000, 0)}
		srv := New(Config{
			Workers: 1,
			// Serve-layer retries off: this test pins the exact failure
			// counts, and a retried attempt would feed health twice per
			// query.
			Retry: RetryConfig{Disabled: true},
			now:   clk.now,
		})
		srv.RegisterFactory("t", func() (*duel.Session, error) {
			return duel.NewSession(inj, duel.DefaultOptions())
		})
		ctx := context.Background()

		for i := 1; i <= 11; i++ {
			if _, err := srv.Eval(ctx, "t", "x[0]"); err == nil || errors.Is(err, ErrQuarantined) {
				t.Fatalf("query %d against the sick target: got %v, want an evaluated failure", i, err)
			}
			want := TargetHealthy
			switch {
			case i >= 11:
				want = TargetQuarantined
			case i >= 6:
				want = TargetBrownout
			}
			if st, score, _ := srv.TargetHealthScore("t"); st != want {
				t.Fatalf("after failure %d: %v (score %.3f), want %v", i, st, score, want)
			}
		}

		// Quarantined: fail fast, and prove the target was not touched.
		opsBefore := inj.Stats().Ops
		if _, err := srv.Eval(ctx, "t", "x[0]"); !errors.Is(err, ErrQuarantined) {
			t.Fatalf("quarantined submit: got %v, want ErrQuarantined", err)
		}
		if ops := inj.Stats().Ops; ops != opsBefore {
			t.Errorf("fast-fail touched the target: %d ops -> %d", opsBefore, ops)
		}

		// The probe interval elapses and the target recovers: the next
		// query is the probe, its success restores health, and traffic
		// (writes included) flows again.
		clk.advance(DefaultProbeInterval)
		inj.Disarm()
		if _, err := srv.Eval(ctx, "t", "x[0]"); err != nil {
			t.Fatalf("probe after recovery failed: %v", err)
		}
		if st, _ := srv.TargetHealth("t"); st != TargetHealthy {
			t.Fatalf("after successful probe: %v, want healthy", st)
		}
		if _, err := srv.Eval(ctx, "t", "x[0] = 3"); err != nil {
			t.Fatalf("post-recovery write failed: %v", err)
		}

		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		st := srv.Stats()
		if st.Brownouts != 1 || st.Quarantined != 1 || st.QuarantineFails != 1 {
			t.Errorf("Brownouts, Quarantined, QuarantineFails = %d, %d, %d; want 1, 1, 1",
				st.Brownouts, st.Quarantined, st.QuarantineFails)
		}
	})
}

// TestHealthFailedProbeRearms: a probe that fails keeps the target
// quarantined, everything that arrives while a probe is in flight fails
// fast, and the next probe waits a full ProbeInterval from the failed
// probe's completion, however long the probe itself took.
func TestHealthFailedProbeRearms(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	h := newHealth(HealthConfig{}, clk.now)
	for i := 0; i < 11; i++ {
		h.observe(false, true, false)
	}
	if st, _, _, _, _ := h.snapshot(); st != TargetQuarantined {
		t.Fatalf("state after 11 infra failures = %v, want quarantined", st)
	}
	if _, err := h.admit(); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("admit inside the first interval: %v, want ErrQuarantined", err)
	}
	clk.advance(DefaultProbeInterval)
	probe, err := h.admit()
	if err != nil || !probe {
		t.Fatalf("admit after the interval: probe=%v err=%v, want a probe", probe, err)
	}
	// While the probe is out, everything else fails fast, however much
	// time passes.
	clk.advance(2 * DefaultProbeInterval)
	if _, err := h.admit(); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("admit during the probe: %v, want ErrQuarantined", err)
	}
	h.observe(true, true, false) // the probe fails
	if st, _, _, _, _ := h.snapshot(); st != TargetQuarantined {
		t.Fatalf("state after a failed probe = %v, want quarantined", st)
	}
	clk.advance(DefaultProbeInterval - time.Millisecond)
	if _, err := h.admit(); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("admit inside the re-armed interval: %v, want ErrQuarantined", err)
	}
	clk.advance(time.Millisecond)
	probe, err = h.admit()
	if err != nil || !probe {
		t.Fatalf("second probe admit: probe=%v err=%v, want a probe", probe, err)
	}
	h.observe(true, false, false)
	if st, _, _, _, _ := h.snapshot(); st != TargetHealthy || h.score() != 1 {
		t.Fatalf("after a clean probe: %v, score %v; want healthy, 1", st, h.score())
	}
	if _, quarantines, fastFails, _, _ := h.snapshot(); quarantines != 1 || fastFails != 3 {
		t.Errorf("quarantines, fast fails = %d, %d; want 1, 3", quarantines, fastFails)
	}
}

// TestShutdownDrainsCleanly: a shutdown with no deadline pressure finishes
// the admitted queries, refuses later ones with ErrDraining, and leaks
// nothing.
func TestShutdownDrainsCleanly(t *testing.T) {
	checkNoLeak(t, func() {
		f := buildDebuggee(t)
		srv := New(Config{Workers: 2})
		srv.Register("t", f)
		ctx := context.Background()
		for i := 0; i < 20; i++ {
			if _, err := srv.Eval(ctx, "t", "x[..10]"); err != nil {
				t.Fatal(err)
			}
		}
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatalf("Shutdown = %v, want nil", err)
		}
		if _, err := srv.Eval(ctx, "t", "x[0]"); !errors.Is(err, ErrDraining) {
			t.Fatalf("post-shutdown submit: got %v, want ErrDraining", err)
		}
		// A second Shutdown is a quiet no-op.
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatalf("second Shutdown = %v", err)
		}
	})
}

// TestShutdownCancelsAtDeadline: a query wedged inside a hanging target
// call must be revoked when the drain deadline passes — the hard cancel
// interrupts the memory chain, the hang releases, the caller sees a
// *core.CanceledError, Shutdown returns the context error, and no
// goroutine survives.
func TestShutdownCancelsAtDeadline(t *testing.T) {
	checkNoLeak(t, func() {
		f := buildDebuggee(t)
		inj := faultdbg.New(f, faultdbg.Plan{
			Rates: map[faultdbg.Kind]float64{faultdbg.CallHang: 1},
			Hang:  30 * time.Second,
		})
		srv := New(Config{Workers: 1})
		srv.RegisterFactory("t", func() (*duel.Session, error) {
			return duel.NewSession(inj, duel.DefaultOptions())
		})

		wedged := make(chan error, 1)
		go func() {
			_, err := srv.Eval(context.Background(), "t", "twice(1)")
			wedged <- err
		}()
		// Wait until the call is provably hanging.
		for deadline := time.Now().Add(5 * time.Second); ; {
			if inj.Stats().Injected[faultdbg.CallHang] >= 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("target call never wedged")
			}
			time.Sleep(time.Millisecond)
		}

		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		start := time.Now()
		if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
		}
		if took := time.Since(start); took > 5*time.Second {
			t.Fatalf("forced shutdown took %v; the hang was not revoked", took)
		}
		err := <-wedged
		var ce *core.CanceledError
		if !errors.As(err, &ce) {
			t.Fatalf("revoked query returned %v, want *core.CanceledError", err)
		}
	})
}

// TestShedWhileDraining: with a wedged worker and the drain already begun,
// new queries are refused immediately with ErrDraining — admission control
// stays responsive all the way down — and the drain still completes at its
// deadline without leaking.
func TestShedWhileDraining(t *testing.T) {
	checkNoLeak(t, func() {
		f := buildDebuggee(t)
		inj := faultdbg.New(f, faultdbg.Plan{
			Rates: map[faultdbg.Kind]float64{faultdbg.CallHang: 1},
			Hang:  30 * time.Second,
		})
		srv := New(Config{Workers: 1})
		srv.RegisterFactory("t", func() (*duel.Session, error) {
			return duel.NewSession(inj, duel.DefaultOptions())
		})

		wedged := make(chan error, 1)
		go func() {
			_, err := srv.Eval(context.Background(), "t", "twice(1)")
			wedged <- err
		}()
		for deadline := time.Now().Add(5 * time.Second); ; {
			if inj.Stats().Injected[faultdbg.CallHang] >= 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("target call never wedged")
			}
			time.Sleep(time.Millisecond)
		}

		shutdownErr := make(chan error, 1)
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		defer cancel()
		go func() { shutdownErr <- srv.Shutdown(ctx) }()

		// Admissions must be refused the moment draining begins.
		for deadline := time.Now().Add(5 * time.Second); ; {
			_, err := srv.Eval(context.Background(), "t", "x[0]")
			if errors.Is(err, ErrDraining) {
				break
			}
			if err != nil {
				t.Fatalf("submit while draining: unexpected %v", err)
			}
			if time.Now().After(deadline) {
				t.Fatal("draining refusal never observed")
			}
			time.Sleep(time.Millisecond)
		}

		if err := <-shutdownErr; !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
		}
		<-wedged
	})
}

// TestCallerCancelRevokesQuery: canceling the submitting caller's own
// context revokes a query wedged in a hanging call, without shutting the
// server down.
func TestCallerCancelRevokesQuery(t *testing.T) {
	checkNoLeak(t, func() {
		f := buildDebuggee(t)
		inj := faultdbg.New(f, faultdbg.Plan{
			Rates: map[faultdbg.Kind]float64{faultdbg.CallHang: 1},
			Hang:  30 * time.Second,
		})
		srv := New(Config{Workers: 2})
		srv.RegisterFactory("t", func() (*duel.Session, error) {
			return duel.NewSession(inj, duel.DefaultOptions())
		})

		ctx, cancel := context.WithCancel(context.Background())
		wedged := make(chan error, 1)
		go func() {
			_, err := srv.Eval(ctx, "t", "twice(1)")
			wedged <- err
		}()
		for deadline := time.Now().Add(5 * time.Second); ; {
			if inj.Stats().Injected[faultdbg.CallHang] >= 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("target call never wedged")
			}
			time.Sleep(time.Millisecond)
		}
		cancel()
		err := <-wedged
		var ce *core.CanceledError
		if !errors.As(err, &ce) {
			t.Fatalf("canceled query returned %v, want *core.CanceledError", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled query does not unwrap to context.Canceled: %v", err)
		}
		// The server is still healthy: the hang poisoned neither the pool
		// nor its sibling sessions' interrupt state.
		inj.Disarm()
		if _, err := srv.Eval(context.Background(), "t", "x[0]"); err != nil {
			t.Fatalf("query after revocation failed: %v", err)
		}
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
}

// TestExecSerializesOutput: any number of concurrent Execs sharing one
// io.Writer must write whole per-query blocks — never interleaved lines.
func TestExecSerializesOutput(t *testing.T) {
	f := buildDebuggee(t)
	srv := New(Config{Workers: 8})
	srv.Register("t", f)
	ctx := context.Background()

	blocks := map[string][]string{}
	queries := []string{"x[..10]", "head-->next->value", "(1..3) + (5,9)"}
	for _, src := range queries {
		out, _ := sesExec(t, f, src)
		lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
		if len(lines) < 2 {
			t.Fatalf("%q: want a multi-line block, got %q", src, out)
		}
		blocks[lines[0]] = lines
	}

	var mu sync.Mutex
	var shared bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return shared.Write(p)
	})

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := srv.Exec(ctx, "t", w, queries[(g+i)%len(queries)]); err != nil {
					t.Errorf("exec: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSuffix(shared.String(), "\n"), "\n")
	for i := 0; i < len(lines); {
		block, ok := blocks[lines[i]]
		if !ok {
			t.Fatalf("line %d: %q is not the start of any query block — output interleaved", i, lines[i])
		}
		for k, want := range block {
			if i+k >= len(lines) || lines[i+k] != want {
				t.Fatalf("block starting at line %d interleaved: want %q, got %q", i, want, lines[i+k])
			}
		}
		i += len(block)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestUnknownTarget: submitting against an unregistered name is a typed
// error, not a panic or a hang.
func TestUnknownTarget(t *testing.T) {
	srv := New(Config{Workers: 1})
	if _, err := srv.Eval(context.Background(), "nope", "1"); !errors.Is(err, ErrUnknownTarget) {
		t.Fatalf("got %v, want ErrUnknownTarget", err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestHealthIgnoresParseErrors: malformed queries are the caller's fault
// and never reach the target, so a stream of them leaves its health score
// untouched.
func TestHealthIgnoresParseErrors(t *testing.T) {
	f := buildDebuggee(t)
	srv := New(Config{Workers: 1})
	srv.Register("t", f)
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		if _, err := srv.Eval(ctx, "t", "x[.."); err == nil {
			t.Fatal("malformed query unexpectedly parsed")
		}
	}
	if st, score, _ := srv.TargetHealthScore("t"); st != TargetHealthy || score != 1 {
		t.Fatalf("after parse errors: %v, score %v; want healthy, 1", st, score)
	}
	if _, err := srv.Eval(ctx, "t", "x[0]"); err != nil {
		t.Fatalf("well-formed query failed: %v", err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestPartialSessionOptionsPreserved: serve.New must normalize a partially
// specified session template field-by-field, exactly like duel.NewSession.
// It used to overwrite the whole struct with DefaultOptions whenever
// Backend was left empty, silently discarding caller-set fields such as
// MaxOutput.
func TestPartialSessionOptionsPreserved(t *testing.T) {
	srv := New(Config{Workers: 1, Session: duel.Options{MaxOutput: 2, ShowSymbolic: true}})
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	got := srv.cfg.Session
	if got.MaxOutput != 2 {
		t.Errorf("MaxOutput = %d, want 2 (caller-set field clobbered)", got.MaxOutput)
	}
	if got.Backend != "push" {
		t.Errorf("Backend = %q, want the push default", got.Backend)
	}
	if !got.ShowSymbolic {
		t.Error("ShowSymbolic = false, want the caller's true")
	}
	if got.Eval.MaxSteps != DefaultMaxSteps || got.Eval.Timeout != DefaultTimeout {
		t.Errorf("serving safety limits not applied: MaxSteps=%d Timeout=%v", got.Eval.MaxSteps, got.Eval.Timeout)
	}
	if got.Eval.MaxOpenRange == 0 {
		t.Error("Eval limits not normalized: MaxOpenRange still 0")
	}

	// A wholly zero template still means the defaults.
	srvZero := New(Config{Workers: 1})
	defer func() {
		if err := srvZero.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	if z := srvZero.cfg.Session; z.Backend != "push" || !z.ShowSymbolic {
		t.Errorf("zero Session template = %+v, want DefaultOptions semantics", z)
	}
}

// TestTruncationIsCleanCompletion: a query whose output Exec truncates at
// MaxOutput returns nil AND counts as a clean completion — the truncation
// sentinel stops the evaluation on purpose and used to leak into the
// failure counter.
func TestTruncationIsCleanCompletion(t *testing.T) {
	f := buildDebuggee(t)
	srv := New(Config{Workers: 1, Session: duel.Options{MaxOutput: 2, ShowSymbolic: true}})
	srv.Register("t", f)
	var buf bytes.Buffer
	if err := srv.Exec(context.Background(), "t", &buf, "x[..10]"); err != nil {
		t.Fatalf("truncated Exec returned %v, want nil", err)
	}
	out := buf.String()
	if !strings.Contains(out, "... (output truncated at 2 lines)") {
		t.Fatalf("missing truncation marker in %q", out)
	}
	if lines := strings.Count(out, "\n"); lines != 3 {
		t.Fatalf("want 2 value lines + marker, got %d lines:\n%s", lines, out)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Completed != 1 || st.Admitted != 1 {
		t.Errorf("Completed/Admitted = %d/%d, want 1/1", st.Completed, st.Admitted)
	}
	if st.Failed != 0 {
		t.Errorf("Failed = %d, want 0: truncation counted as a failure", st.Failed)
	}
}

// TestStatsSnapshotConsistency hammers the admission path while a poller
// takes snapshots: no snapshot may show Completed > Admitted. Before the
// ordering fix, Admitted was bumped after the enqueue (and after the
// admission lock dropped), so a fast worker could complete the query first.
func TestStatsSnapshotConsistency(t *testing.T) {
	f := buildDebuggee(t)
	srv := New(Config{Workers: 2})
	srv.Register("t", f)
	ctx := context.Background()

	stop := make(chan struct{})
	bad := make(chan string, 1)
	var pollWg sync.WaitGroup
	pollWg.Add(1)
	go func() {
		defer pollWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if st := srv.Stats(); st.Completed > st.Admitted {
				select {
				case bad <- fmt.Sprintf("Completed %d > Admitted %d", st.Completed, st.Admitted):
				default:
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := srv.Eval(ctx, "t", "x[0]"); err != nil {
					t.Errorf("eval: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	pollWg.Wait()
	select {
	case msg := <-bad:
		t.Error(msg)
	default:
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Admitted != 200 || st.Completed != 200 || st.Failed != 0 {
		t.Errorf("final stats %+v, want 200 admitted = completed, 0 failed", st)
	}
}

// TestMutatesTargetNarrowing pins the classification both ways: the
// conservative AST-only walk still flags every call, while the
// debugger-aware walk admits the evaluator's read-only builtins to the
// shared read lock — unless the target shadows the name, or a builtin's
// argument itself mutates.
func TestMutatesTargetNarrowing(t *testing.T) {
	f := buildDebuggee(t)
	ses := duel.MustNewSession(f)
	cases := []struct {
		src       string
		ast, with bool // MutatesTarget / MutatesTargetFor(f)
	}{
		{"x[0]", false, false},
		{"x[0] = 1", true, true},
		{"frames()", true, false},
		{"frame(0)", true, false},
		{"frame(x[0]++)", true, true},
		{"twice(1)", true, true},     // target-defined function: real call
		{"x[frames()]", true, false}, // builtin call in a subexpression
		{"\"abc\"[1]", true, true},   // string literal interns target space
	}
	for _, tc := range cases {
		n, err := ses.Parse(tc.src)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.src, err)
		}
		if got := MutatesTarget(n); got != tc.ast {
			t.Errorf("MutatesTarget(%q) = %v, want %v", tc.src, got, tc.ast)
		}
		if got := MutatesTargetFor(n, f); got != tc.with {
			t.Errorf("MutatesTargetFor(%q) = %v, want %v", tc.src, got, tc.with)
		}
	}

	// A target that shadows "frames" with its own variable keeps the
	// conservative classification: the evaluator would resolve the name
	// to the target symbol, not the builtin.
	shadow := fakedbg.New(ctype.ILP32, 1<<16)
	shadow.MustVar("frames", shadow.A.Int)
	shadowSes := duel.MustNewSession(shadow)
	n, err := shadowSes.Parse("frames()")
	if err != nil {
		t.Fatalf("parse shadowed frames(): %v", err)
	}
	if !MutatesTargetFor(n, shadow) {
		t.Error("MutatesTargetFor(frames()) = false with a shadowing target variable, want true")
	}
}

// TestMutatesTargetReadOnly: against a target that declares itself
// read-only, no query can mutate anything — every write-shaped construct
// fails with the typed sentinel before touching memory — so the classifier
// keeps the entire workload on the shared read lock.
func TestMutatesTargetReadOnly(t *testing.T) {
	f := buildDebuggee(t)
	f.ReadOnly = true
	ses := duel.MustNewSession(f)
	for _, src := range []string{"x[0]", "x[0] = 1", "x[0]++", "int i;", "twice(1)", "\"abc\"[1]"} {
		n, err := ses.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if MutatesTargetFor(n, f) {
			t.Errorf("MutatesTargetFor(%q) = true on a read-only target, want false", src)
		}
	}
}

// TestWriteThenReadCoherence: with the page cache on, a read that follows a
// mutating query must see the write, whichever pooled session answers it —
// each evaluation starts with an empty cache, so no session serves
// pre-write bytes. Several write→read rounds through a multi-worker server,
// with reads fanned wide enough that many distinct pooled sessions (with
// caches filled by the previous round) answer.
func TestWriteThenReadCoherence(t *testing.T) {
	f := buildDebuggee(t)
	opts := duel.DefaultOptions()
	opts.Eval.MemCache = true
	srv := New(Config{Workers: 4, QueueDepth: 32, Session: opts})
	srv.Register("t", f)
	ctx := context.Background()

	for round := 1; round <= 5; round++ {
		// Warm many sessions' caches on the current value.
		var warm sync.WaitGroup
		for g := 0; g < 8; g++ {
			warm.Add(1)
			go func() {
				defer warm.Done()
				if _, err := srv.Eval(ctx, "t", "x[0]"); err != nil {
					t.Errorf("warm read: %v", err)
				}
			}()
		}
		warm.Wait()

		want := fmt.Sprintf("%d", 100+round)
		if _, err := srv.Eval(ctx, "t", fmt.Sprintf("x[0] = %s", want)); err != nil {
			t.Fatalf("round %d write: %v", round, err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				res, err := srv.Eval(ctx, "t", "x[0]")
				if err != nil {
					t.Errorf("round %d read: %v", round, err)
					return
				}
				if len(res) != 1 || res[0].Text != want {
					t.Errorf("round %d reader %d: got %+v, want x[0] = %s (stale page served)", round, g, res, want)
				}
			}(g)
		}
		wg.Wait()
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
