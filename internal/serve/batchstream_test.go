package serve

// Tests for batched read coalescing (batch.go) and streaming value emission
// (stream.go). The batching tests are built deterministic: size-triggered
// flushes are forced by submitting exactly BatchSize members while MaxWait
// is parked at an hour, so no test depends on timer races.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"duel"
	"duel/internal/dbgif"
)

// countingTarget wraps a debuggee and counts host read round-trips, so the
// warm-pass tests can assert the batch actually shares reads.
type countingTarget struct {
	dbgif.Debugger
	reads atomic.Int64
}

func (c *countingTarget) GetTargetBytes(addr uint64, n int) ([]byte, error) {
	c.reads.Add(1)
	return c.Debugger.GetTargetBytes(addr, n)
}

// pendingLen peeks at a target's batcher, for tests that need to order a
// second submission behind a first one deterministically.
func pendingLen(t *targetState) int {
	t.batch.mu.Lock()
	defer t.batch.mu.Unlock()
	return len(t.batch.pending)
}

// waitPending blocks until the target's batcher holds want members.
func waitPending(t *testing.T, tst *targetState, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for pendingLen(tst) != want {
		if time.Now().After(deadline) {
			t.Fatalf("batcher never reached %d pending members (have %d)", want, pendingLen(tst))
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestBatchCoalescesSizeFlush pins the tentpole guarantee end to end: 32
// concurrent read-only queries with BatchSize=32 coalesce into exactly one
// batch — one flush, one target-lock acquisition — and every member still
// gets its own correct, complete transcript.
func TestBatchCoalescesSizeFlush(t *testing.T) {
	checkNoLeak(t, func() {
		const members = 32
		f := buildDebuggee(t)
		srv := New(Config{
			Workers: 1,
			Batch:   BatchConfig{Enabled: true, BatchSize: members, MaxWait: time.Hour},
		})
		srv.Register("t", f)
		defer func() {
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Error(err)
			}
		}()

		const src = "x[..10] >? 4"
		wantOut, wantErr := sesExec(t, buildDebuggee(t), src)

		var wg sync.WaitGroup
		outs := make([]string, members)
		errs := make([]error, members)
		for i := 0; i < members; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rs, err := srv.Eval(context.Background(), "t", src)
				errs[i] = err
				for _, r := range rs {
					outs[i] += r.Line() + "\n"
				}
			}(i)
		}
		wg.Wait()

		for i := 0; i < members; i++ {
			if fmt.Sprint(errs[i]) != wantErr {
				t.Errorf("member %d: error %v, want %s", i, errs[i], wantErr)
			}
			if outs[i] != wantOut {
				t.Errorf("member %d transcript diverges:\n--- session\n%s--- batched\n%s", i, wantOut, outs[i])
			}
		}

		st := srv.Stats()
		if st.BatchedQueries != members {
			t.Errorf("BatchedQueries = %d, want %d", st.BatchedQueries, members)
		}
		if st.BatchFlushes != 1 {
			t.Errorf("BatchFlushes = %d, want 1", st.BatchFlushes)
		}
		if st.TargetLocks != 1 {
			t.Errorf("TargetLocks = %d, want 1: the batch did not share one acquisition", st.TargetLocks)
		}
		if st.Admitted != members || st.Completed != members {
			t.Errorf("Admitted/Completed = %d/%d, want %d/%d", st.Admitted, st.Completed, members, members)
		}
	})
}

// TestBatchWarmPassSharesReads holds the host-read half of the coalescing
// guarantee: the same query load against the same target must cost at least
// 2x fewer host read round-trips batched than unbatched (in practice the
// gap is an order of magnitude — one warm pass per batch versus a full scan
// per query).
func TestBatchWarmPassSharesReads(t *testing.T) {
	const members = 32
	const src = "x[..10] >? 4"

	run := func(batch BatchConfig, concurrent bool) int64 {
		ct := &countingTarget{Debugger: buildDebuggee(t)}
		srv := New(Config{Workers: 1, Batch: batch})
		srv.Register("t", ct)
		defer func() {
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Error(err)
			}
		}()
		if concurrent {
			var wg sync.WaitGroup
			for i := 0; i < members; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := srv.Eval(context.Background(), "t", src); err != nil {
						t.Errorf("batched eval: %v", err)
					}
				}()
			}
			wg.Wait()
		} else {
			for i := 0; i < members; i++ {
				if _, err := srv.Eval(context.Background(), "t", src); err != nil {
					t.Errorf("unbatched eval: %v", err)
				}
			}
		}
		return ct.reads.Load()
	}

	unbatched := run(BatchConfig{}, false)
	batched := run(BatchConfig{Enabled: true, BatchSize: members, MaxWait: time.Hour}, true)
	t.Logf("host reads for %d queries: unbatched %d, batched %d", members, unbatched, batched)
	if batched*2 > unbatched {
		t.Errorf("batched run cost %d host reads vs %d unbatched; want at least 2x fewer", batched, unbatched)
	}
}

// TestBatchMaxWaitFlushesLoneQuery: a single query must not be parked
// behind BatchSize forever — the MaxWait timer flushes a batch of one.
func TestBatchMaxWaitFlushesLoneQuery(t *testing.T) {
	checkNoLeak(t, func() {
		f := buildDebuggee(t)
		srv := New(Config{
			Workers: 2,
			Batch:   BatchConfig{Enabled: true, BatchSize: 64, MaxWait: 2 * time.Millisecond},
		})
		srv.Register("t", f)
		defer func() {
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Error(err)
			}
		}()

		wantOut, _ := sesExec(t, buildDebuggee(t), "x[..10]")
		start := time.Now()
		rs, err := srv.Eval(context.Background(), "t", "x[..10]")
		if err != nil {
			t.Fatalf("lone batched query: %v", err)
		}
		if waited := time.Since(start); waited > 5*time.Second {
			t.Fatalf("lone query took %v: MaxWait flush did not fire", waited)
		}
		var got string
		for _, r := range rs {
			got += r.Line() + "\n"
		}
		if got != wantOut {
			t.Errorf("transcript diverges:\n--- session\n%s--- batched\n%s", wantOut, got)
		}
		st := srv.Stats()
		if st.BatchedQueries != 1 || st.BatchFlushes != 1 {
			t.Errorf("BatchedQueries/BatchFlushes = %d/%d, want 1/1", st.BatchedQueries, st.BatchFlushes)
		}
	})
}

// TestBatchMemberDeadlineExpiresQueued: a member whose deadline lapses while
// the batch is queued is shed with the typed ErrDeadlineExceeded — and the
// rest of the batch still evaluates.
func TestBatchMemberDeadlineExpiresQueued(t *testing.T) {
	checkNoLeak(t, func() {
		f := buildDebuggee(t)
		clk := &fakeClock{t: time.Unix(1_000_000, 0)}
		srv := New(Config{
			Workers: 1,
			now:     clk.now,
			Batch:   BatchConfig{Enabled: true, BatchSize: 2, MaxWait: time.Hour},
		})
		srv.Register("t", f)
		tst, err := srv.lookup("t")
		if err != nil {
			t.Fatal(err)
		}

		// Member A carries a deadline already in the past on the pinned
		// clock; it pends alone (BatchSize 2) until member B arrives and
		// flushes the pair.
		aDone := make(chan error, 1)
		go func() {
			_, err := srv.EvalWith(context.Background(), "t", "x[0]",
				SubmitOptions{Deadline: clk.now().Add(-time.Second)})
			aDone <- err
		}()
		waitPending(t, tst, 1)

		rs, berr := srv.Eval(context.Background(), "t", "x[..10]")
		aerr := <-aDone

		if !errors.Is(aerr, ErrDeadlineExceeded) {
			t.Fatalf("expired member: got %v, want ErrDeadlineExceeded", aerr)
		}
		if !errors.Is(aerr, context.DeadlineExceeded) {
			t.Fatalf("ErrDeadlineExceeded does not match context.DeadlineExceeded: %v", aerr)
		}
		if berr != nil {
			t.Fatalf("the batch did not continue past the expired member: %v", berr)
		}
		if len(rs) != 10 {
			t.Fatalf("surviving member produced %d values, want 10", len(rs))
		}
		st := srv.Stats()
		if st.DeadlineExpired != 1 {
			t.Errorf("DeadlineExpired = %d, want 1", st.DeadlineExpired)
		}
		if st.BatchedQueries != 2 || st.Completed != 1 {
			t.Errorf("BatchedQueries/Completed = %d/%d, want 2/1", st.BatchedQueries, st.Completed)
		}

		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBatchStraddlesBrownout: a batch admitted while the target was healthy
// and flushed after it browned out still runs — brownout sheds writes, and
// a batch is all reads. The flush-time health re-check only stops a batch
// whose target has fully quarantined.
func TestBatchStraddlesBrownout(t *testing.T) {
	checkNoLeak(t, func() {
		f := buildDebuggee(t)
		srv := New(Config{
			Workers: 1,
			Batch:   BatchConfig{Enabled: true, BatchSize: 2, MaxWait: time.Hour},
		})
		srv.Register("t", f)
		tst, err := srv.lookup("t")
		if err != nil {
			t.Fatal(err)
		}

		aDone := make(chan error, 1)
		go func() {
			_, err := srv.Eval(context.Background(), "t", "x[..10] >? 4")
			aDone <- err
		}()
		waitPending(t, tst, 1)

		// Healthy -> Brownout between admission and flush. The score goes
		// with the state, low enough that the two clean member reads cannot
		// EWMA it back over the recovery threshold mid-test.
		tst.health.scoreFP.Store(healthScale * 55 / 100)
		tst.health.state.Store(int32(TargetBrownout))

		berr := error(nil)
		if _, berr = srv.Eval(context.Background(), "t", "x[0]"); berr != nil {
			t.Fatalf("read member under brownout: %v", berr)
		}
		if aerr := <-aDone; aerr != nil {
			t.Fatalf("read member under brownout: %v", aerr)
		}
		if st, _ := srv.TargetHealth("t"); st != TargetBrownout {
			t.Errorf("target health = %v, want brownout still", st)
		}
		if st := srv.Stats(); st.BrownoutSheds != 0 {
			t.Errorf("BrownoutSheds = %d, want 0: a read-only batch was shed", st.BrownoutSheds)
		}

		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
}

// streamBackends is the full backend matrix the byte-identity test runs.
var streamBackends = []string{"push", "machine"}

// TestStreamMatchesSubmit holds SubmitStream to byte-identity with the
// collected path on every backend: same queries, same order, and every
// streamed (Sym, Text) pair must equal the Result the same query produces
// through Eval — plus the stream-only invariants (dense Seq, stamped At).
func TestStreamMatchesSubmit(t *testing.T) {
	queries := []string{
		"x[..10] >? 4",
		"head-->next->value",
		"#/(x[..10] != 0)",
		"(1..3) + (5,9)",
		"x[2..5]",
	}
	for _, backend := range streamBackends {
		t.Run(backend, func(t *testing.T) {
			checkNoLeak(t, func() {
				f := buildDebuggee(t)
				opts := duel.DefaultOptions()
				opts.Backend = backend
				srv := New(Config{Workers: 2, Session: opts})
				srv.Register("t", f)
				defer func() {
					if err := srv.Shutdown(context.Background()); err != nil {
						t.Error(err)
					}
				}()

				ctx := context.Background()
				for _, src := range queries {
					want, err := srv.Eval(ctx, "t", src)
					if err != nil {
						t.Fatalf("%q: eval: %v", src, err)
					}
					var got []StreamValue
					err = srv.SubmitStream(ctx, "t", src, SubmitOptions{}, func(v StreamValue) error {
						got = append(got, v)
						return nil
					})
					if err != nil {
						t.Fatalf("%q: stream: %v", src, err)
					}
					if len(got) != len(want) {
						t.Fatalf("%q: streamed %d values, collected %d", src, len(got), len(want))
					}
					for i, v := range got {
						if v.Sym != want[i].Sym || v.Text != want[i].Text {
							t.Errorf("%q value %d: streamed (%q, %q), collected (%q, %q)",
								src, i, v.Sym, v.Text, want[i].Sym, want[i].Text)
						}
						if v.Line() != want[i].Line() {
							t.Errorf("%q value %d: Line %q vs %q", src, i, v.Line(), want[i].Line())
						}
						if v.Seq != i {
							t.Errorf("%q value %d: Seq = %d", src, i, v.Seq)
						}
						if v.At.IsZero() {
							t.Errorf("%q value %d: zero At timestamp", src, i)
						}
					}
				}

				st := srv.Stats()
				if st.StreamQueries != int64(len(queries)) {
					t.Errorf("StreamQueries = %d, want %d", st.StreamQueries, len(queries))
				}
			})
		})
	}
}

// TestStreamAbandonment: a consumer that gives up mid-stream (emit error)
// aborts the evaluation promptly, leaks nothing and leaves the pooled
// session healthy for the next query.
func TestStreamAbandonment(t *testing.T) {
	for _, backend := range streamBackends {
		t.Run(backend, func(t *testing.T) {
			checkNoLeak(t, func() {
				f := buildDebuggee(t)
				opts := duel.DefaultOptions()
				opts.Backend = backend
				srv := New(Config{Workers: 1, Session: opts})
				srv.Register("t", f)
				defer func() {
					if err := srv.Shutdown(context.Background()); err != nil {
						t.Error(err)
					}
				}()

				ctx := context.Background()
				abandon := errors.New("consumer walked away")
				seen := 0
				err := srv.SubmitStream(ctx, "t", "x[..10]", SubmitOptions{}, func(StreamValue) error {
					seen++
					if seen >= 2 {
						return abandon
					}
					return nil
				})
				if !errors.Is(err, abandon) {
					t.Fatalf("abandoned stream returned %v, want the emit error", err)
				}
				if seen != 2 {
					t.Fatalf("saw %d values after abandoning at 2", seen)
				}

				// The session that served the aborted stream must be fully
				// reusable: same pool, fresh query, complete transcript.
				rs, err := srv.Eval(ctx, "t", "x[..10]")
				if err != nil || len(rs) != 10 {
					t.Fatalf("post-abandonment query: %d values, err %v", len(rs), err)
				}
			})
		})
	}
}
