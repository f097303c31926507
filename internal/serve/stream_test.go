package serve

// Tests for streaming value emission (stream.go).

import (
	"context"
	"errors"
	"testing"

	"duel"
)

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
