package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"duel"
	"duel/internal/core"
	"duel/internal/fakedbg"
	"duel/internal/memio"
)

// flakyTarget wraps the differential fixture with a countdown of transient
// read failures: the first failN FetchTargetBytes calls fail transiently, the
// rest pass through. failN = -1 fails forever until disarm.
type flakyTarget struct {
	*fakedbg.Fake
	mu    sync.Mutex
	failN int
	calls int
}

func (d *flakyTarget) FetchTargetBytes(addr uint64, dst []byte) error {
	d.mu.Lock()
	d.calls++
	fail := d.failN < 0 || d.calls <= d.failN
	d.mu.Unlock()
	if fail {
		return memio.ErrTransient
	}
	return d.Fake.FetchTargetBytes(addr, dst)
}

func (d *flakyTarget) disarm() {
	d.mu.Lock()
	d.failN = 0
	d.calls = 1 << 30
	d.mu.Unlock()
}

// TestDeadlineExpiresInQueue pins the deadline-in-queue semantics: a query
// whose deadline lapsed while it sat in the queue is shed with
// ErrDeadlineExceeded before the worker builds a session or touches the
// target lock.
func TestDeadlineExpiresInQueue(t *testing.T) {
	checkNoLeak(t, func() {
		f := buildDebuggee(t)
		clk := &fakeClock{t: time.Unix(1_000_000, 0)}
		var factoryCalls atomic.Int64
		srv := New(Config{Workers: 1, now: clk.now})
		srv.RegisterFactory("t", func() (*duel.Session, error) {
			factoryCalls.Add(1)
			return duel.NewSession(f, duel.DefaultOptions())
		})
		tst, err := srv.lookup("t")
		if err != nil {
			t.Fatal(err)
		}
		// Hold the target's write lock for the whole test: if the shed
		// path ever tried to acquire the target lock, the query would
		// block here instead of returning.
		tst.rw.Lock()
		locked := true
		defer func() {
			if locked {
				tst.rw.Unlock()
			}
		}()

		// The deadline is already in the past on the pinned clock, so the
		// worker's pickup check sheds deterministically.
		opt := SubmitOptions{Deadline: clk.now().Add(-time.Second)}
		_, err = srv.EvalWith(context.Background(), "t", "x[0]", opt)
		if !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("queued-past-deadline query: got %v, want ErrDeadlineExceeded", err)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("ErrDeadlineExceeded does not match context.DeadlineExceeded: %v", err)
		}
		if n := factoryCalls.Load(); n != 0 {
			t.Fatalf("shed query built %d sessions, want 0", n)
		}
		st := srv.Stats()
		if st.DeadlineExpired != 1 || st.Completed != 0 || st.Admitted != 1 {
			t.Fatalf("stats = %+v, want DeadlineExpired 1, Completed 0, Admitted 1", st)
		}

		tst.rw.Unlock()
		locked = false
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCanceledMidEvalSurfacesCause: a query canceled mid-evaluation surfaces
// *core.CanceledError with the context cause intact through the whole
// serve → session → core chain.
func TestCanceledMidEvalSurfacesCause(t *testing.T) {
	checkNoLeak(t, func() {
		f := buildDebuggee(t)
		srv := New(Config{Workers: 1})
		srv.Register("t", f)
		defer func() {
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Error(err)
			}
		}()

		why := errors.New("operator pulled the plug")
		ctx, cancel := context.WithCancelCause(context.Background())
		started := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			first := true
			done <- srv.SubmitContext(ctx, "t", "x[..10]", SubmitOptions{}, func(duel.Result) error {
				if first {
					// Hold the evaluation mid-generator until the caller
					// cancels, then give the eval watchdog real time to
					// trip before the next step's cancel check runs.
					first = false
					close(started)
					<-ctx.Done()
					time.Sleep(20 * time.Millisecond)
				}
				return nil
			})
		}()
		<-started // the evaluation is live, mid-generator
		cancel(why)
		err := <-done

		var ce *core.CanceledError
		if !errors.As(err, &ce) {
			t.Fatalf("mid-eval cancel: got %v, want *core.CanceledError", err)
		}
		if !errors.Is(err, why) {
			t.Fatalf("cancel cause lost: %v does not wrap %v", err, why)
		}
	})
}

// TestServeRetryAbsorbsExhaustedTransient: a read whose memio retry schedule
// is spent to exhaustion is re-run once at the serve layer under the retry
// budget, and the caller never sees the fault.
func TestServeRetryAbsorbsExhaustedTransient(t *testing.T) {
	checkNoLeak(t, func() {
		// Four straight transient failures exhaust memio's default
		// schedule (1 try + 3 retries) on the first attempt's first read;
		// the serve-layer re-run then sees a healthy target.
		flaky := &flakyTarget{Fake: buildDebuggee(t), failN: 4}
		srv := New(Config{Workers: 1})
		srv.RegisterFactory("t", func() (*duel.Session, error) {
			return duel.NewSession(memio.New(flaky, memio.Config{RetryBackoff: time.Microsecond}), duel.DefaultOptions())
		})
		defer func() {
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Error(err)
			}
		}()

		out, err := srv.Eval(context.Background(), "t", "x[0]")
		if err != nil {
			t.Fatalf("query over transient exhaustion: %v", err)
		}
		if len(out) != 1 || out[0].Text != "3" {
			t.Fatalf("retried query result = %v, want [3]", out)
		}
		st := srv.Stats()
		if st.Retried != 1 {
			t.Fatalf("Retried = %d, want 1", st.Retried)
		}
		if st.Admitted != 1 || st.Completed != 1 || st.Failed != 0 {
			t.Fatalf("stats = %+v, want exactly one admission/completion, no failure", st)
		}
	})
}

// TestRetryBudgetBounded: when the bucket is dry, failures surface instead
// of spawning more attempts — retries cannot storm a degraded target.
func TestRetryBudgetBounded(t *testing.T) {
	checkNoLeak(t, func() {
		flaky := &flakyTarget{Fake: buildDebuggee(t), failN: -1}
		srv := New(Config{
			Workers: 1,
			Retry:   RetryConfig{Burst: 1, Ratio: 0.001, Backoff: time.Microsecond},
			Breaker: BreakerConfig{Threshold: 100},
		})
		srv.RegisterFactory("t", func() (*duel.Session, error) {
			return duel.NewSession(memio.New(flaky, memio.Config{RetryBackoff: time.Microsecond}), duel.DefaultOptions())
		})
		defer func() {
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Error(err)
			}
		}()

		for i := 0; i < 2; i++ {
			_, err := srv.Eval(context.Background(), "t", "x[0]")
			if !memio.IsRetryExhausted(err) {
				t.Fatalf("query %d against dead target: got %v, want retry-exhausted fault", i, err)
			}
		}
		st := srv.Stats()
		if st.Retried != 1 {
			t.Fatalf("Retried = %d, want 1 (burst spent on query 0, none left for query 1)", st.Retried)
		}
		if st.Completed != 2 || st.Failed != 2 {
			t.Fatalf("stats = %+v, want 2 completions / 2 failures", st)
		}
	})
}

// TestRetryOnCircuitOpen: a breaker rejection is a retryable infra failure —
// the retry burns budget even when the breaker refuses again, and the
// refusal never counts as an admission or completion.
func TestRetryOnCircuitOpen(t *testing.T) {
	checkNoLeak(t, func() {
		f := buildDebuggee(t)
		clk := &fakeClock{t: time.Unix(1_000_000, 0)}
		srv := New(Config{
			Workers: 1,
			Breaker: BreakerConfig{Threshold: 2, Cooldown: time.Hour},
			now:     clk.now,
		})
		srv.Register("t", f)
		defer func() {
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Error(err)
			}
		}()
		tst, err := srv.lookup("t")
		if err != nil {
			t.Fatal(err)
		}
		tst.brk.record(false, true)
		tst.brk.record(false, true) // breaker open, cooldown far away

		_, err = srv.Eval(context.Background(), "t", "x[0]")
		if !errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("open-breaker query: got %v, want ErrCircuitOpen", err)
		}
		st := srv.Stats()
		if st.Retried != 1 {
			t.Fatalf("Retried = %d, want 1 (the rejection was retried once)", st.Retried)
		}
		if st.FastFails != 2 {
			t.Fatalf("FastFails = %d, want 2 (original + retry both refused)", st.FastFails)
		}
		if st.Admitted != 0 || st.Completed != 0 {
			t.Fatalf("stats = %+v, want no admissions or completions for refused attempts", st)
		}
	})
}

// healthFixture: a server over a switchable always-failing target, retries
// off and the breaker out of the way so the health state machine is the
// only actor, on a pinned clock.
func healthFixture(t *testing.T) (*Server, *flakyTarget, *fakeClock) {
	t.Helper()
	flaky := &flakyTarget{Fake: buildDebuggee(t), failN: -1}
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	srv := New(Config{
		Workers: 1,
		Retry:   RetryConfig{Disabled: true},
		Breaker: BreakerConfig{Threshold: 1 << 30},
		now:     clk.now,
	})
	srv.RegisterFactory("t", func() (*duel.Session, error) {
		return duel.NewSession(memio.New(flaky, memio.Config{RetryBackoff: time.Microsecond}), duel.DefaultOptions())
	})
	return srv, flaky, clk
}

// driveHealth pumps read queries until the target reaches the wanted state.
func driveHealth(t *testing.T, srv *Server, want HealthState) {
	t.Helper()
	for i := 0; i < 64; i++ {
		st, err := srv.TargetHealth("t")
		if err != nil {
			t.Fatal(err)
		}
		if st == want {
			return
		}
		_, _ = srv.Eval(context.Background(), "t", "x[0]")
	}
	st, _ := srv.TargetHealth("t")
	t.Fatalf("target never reached %v (stuck at %v)", want, st)
}

// TestBrownoutShedsWritesServesReads pins the graded response: a degraded
// target sheds mutating queries with ErrBrownout while read-only queries
// keep being served, and recovers to healthy once reads succeed again.
func TestBrownoutShedsWritesServesReads(t *testing.T) {
	checkNoLeak(t, func() {
		srv, flaky, _ := healthFixture(t)
		defer func() {
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Error(err)
			}
		}()

		driveHealth(t, srv, TargetBrownout)

		// Writes shed...
		_, err := srv.Eval(context.Background(), "t", "x[0] = 11")
		if !errors.Is(err, ErrBrownout) {
			t.Fatalf("write against browned-out target: got %v, want ErrBrownout", err)
		}
		// ...while reads keep flowing: heal the substrate and the very
		// next read (still under brownout) completes.
		flaky.disarm()
		if st, _ := srv.TargetHealth("t"); st != TargetBrownout {
			t.Fatalf("state before read = %v, want brownout", st)
		}
		if _, err := srv.Eval(context.Background(), "t", "x[0]"); err != nil {
			t.Fatalf("read under brownout: %v", err)
		}

		// Successes pull the score back up; the brownout lifts and writes
		// flow again.
		driveHealth(t, srv, TargetHealthy)
		if _, err := srv.Eval(context.Background(), "t", "x[0] = 11"); err != nil {
			t.Fatalf("write after recovery: %v", err)
		}
		st := srv.Stats()
		if st.Brownouts != 1 || st.BrownoutSheds != 1 {
			t.Fatalf("Brownouts/BrownoutSheds = %d/%d, want 1/1", st.Brownouts, st.BrownoutSheds)
		}
		if st.Quarantined != 0 {
			t.Fatalf("Quarantined = %d, want 0 (never collapsed that far)", st.Quarantined)
		}
	})
}

// TestQuarantineProbeReadmission pins the full collapse and the probe-based
// way back: quarantined queries fail fast without touching the target, and
// one clean probe per interval restores service.
func TestQuarantineProbeReadmission(t *testing.T) {
	checkNoLeak(t, func() {
		srv, flaky, clk := healthFixture(t)
		defer func() {
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Error(err)
			}
		}()

		driveHealth(t, srv, TargetQuarantined)

		// Fail fast, without touching the substrate.
		flaky.mu.Lock()
		callsBefore := flaky.calls
		flaky.mu.Unlock()
		_, err := srv.Eval(context.Background(), "t", "x[0]")
		if !errors.Is(err, ErrQuarantined) {
			t.Fatalf("quarantined query: got %v, want ErrQuarantined", err)
		}
		flaky.mu.Lock()
		callsAfter := flaky.calls
		flaky.mu.Unlock()
		if callsAfter != callsBefore {
			t.Fatalf("fast-fail touched the target: %d reads -> %d", callsBefore, callsAfter)
		}

		// Heal the substrate; within one probe interval the next query is
		// admitted as the probe, completes cleanly, and re-admits the
		// target entirely.
		flaky.disarm()
		clk.advance(DefaultProbeInterval + time.Millisecond)
		if _, err := srv.Eval(context.Background(), "t", "x[0]"); err != nil {
			t.Fatalf("probe after recovery: %v", err)
		}
		if st, _ := srv.TargetHealth("t"); st != TargetHealthy {
			t.Fatalf("state after clean probe = %v, want healthy", st)
		}
		if _, err := srv.Eval(context.Background(), "t", "x[0] = 11"); err != nil {
			t.Fatalf("write after re-admission: %v", err)
		}
		st := srv.Stats()
		if st.Quarantined != 1 {
			t.Fatalf("Quarantined transitions = %d, want 1", st.Quarantined)
		}
		if st.QuarantineFails == 0 {
			t.Fatal("QuarantineFails = 0, want at least the one fast-failed query")
		}
	})
}

// burstyTarget fails four of every five reads transiently: with memio's
// default schedule (one try and three retries) a one-read query's attempt
// exhausts the schedule and the next attempt's read succeeds.
type burstyTarget struct {
	*fakedbg.Fake
	calls atomic.Int64
}

func (d *burstyTarget) FetchTargetBytes(addr uint64, dst []byte) error {
	if d.calls.Add(1)%5 != 0 {
		return memio.ErrTransient
	}
	return d.Fake.FetchTargetBytes(addr, dst)
}

// TestShutdownDrainsRetries is the Shutdown-vs-retry regression: a query
// whose first attempt fails and whose serve retry runs counts as exactly one
// admission and one completion, the drain waits for queries between their
// attempts, and Completed never exceeds Admitted at any observable moment —
// mid-storm, mid-drain, or after.
func TestShutdownDrainsRetries(t *testing.T) {
	checkNoLeak(t, func() {
		// Phase A — exactly-once accounting: every query's first attempt
		// exhausts memio's schedule and its retry succeeds, so the
		// counters come out exactly 1:1 with the queries issued.
		bursty := &burstyTarget{Fake: buildDebuggee(t)}
		// Ratio 1 earns a whole retry per completion: the bucket never
		// runs dry, so every query gets its retry.
		retry := RetryConfig{Burst: 1, Ratio: 1, Backoff: time.Microsecond}
		srv := New(Config{Workers: 2, Retry: retry})
		srv.RegisterFactory("t", func() (*duel.Session, error) {
			return duel.NewSession(memio.New(bursty, memio.Config{RetryBackoff: time.Microsecond}), duel.DefaultOptions())
		})
		const phaseA = 20
		for i := 0; i < phaseA; i++ {
			out, err := srv.Eval(context.Background(), "t", "x[0]")
			if err != nil || len(out) != 1 || out[0].Text != "3" {
				t.Fatalf("phase A query %d = %v, %v; want [3]", i, out, err)
			}
		}
		st := srv.Stats()
		if st.Admitted != phaseA || st.Completed != phaseA || st.Retried != phaseA || st.Failed != 0 {
			t.Fatalf("phase A stats = %+v, want Admitted = Completed = Retried = %d, no failure", st, phaseA)
		}
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}

		// Phase B — drain under fire: every attempt fails after memio's
		// backoff and every query retries, so queries sit between their
		// attempts and on their second attempt while Shutdown drains. A
		// poller watches the invariant live, and checkNoLeak around the
		// whole test catches a stranded attempt. Health tracking and the
		// breaker are out of the way so nothing fails fast.
		flaky := &flakyTarget{Fake: buildDebuggee(t), failN: -1}
		srv = New(Config{
			Workers: 4,
			Retry:   RetryConfig{Burst: 8, Ratio: 1, Backoff: 500 * time.Microsecond},
			Breaker: BreakerConfig{Threshold: 1 << 20},
			Health:  HealthConfig{Disabled: true},
		})
		srv.RegisterFactory("t", func() (*duel.Session, error) {
			return duel.NewSession(memio.New(flaky, memio.Config{RetryBackoff: 100 * time.Microsecond}), duel.DefaultOptions())
		})
		stop := make(chan struct{})
		var violations atomic.Int64
		var poll sync.WaitGroup
		poll.Add(1)
		go func() {
			defer poll.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if s := srv.Stats(); s.Completed > s.Admitted {
					violations.Add(1)
				}
				time.Sleep(200 * time.Microsecond)
			}
		}()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					_, err := srv.Eval(context.Background(), "t", "x[0]")
					if errors.Is(err, ErrDraining) {
						return
					}
					if !memio.IsRetryExhausted(err) {
						t.Errorf("phase B query: %v, want a retry-exhausted fault", err)
						return
					}
				}
			}()
		}
		time.Sleep(20 * time.Millisecond)
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		close(stop)
		poll.Wait()
		if n := violations.Load(); n != 0 {
			t.Fatalf("Completed > Admitted observed %d times during the drain", n)
		}
		s := srv.Stats()
		if s.Completed > s.Admitted {
			t.Fatalf("final stats violate the invariant: %+v", s)
		}
		if s.Retried == 0 {
			t.Fatal("phase B issued no retries; the drain was not exercised between attempts")
		}
	})
}
