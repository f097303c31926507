package serve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"duel/internal/dbgif"
)

// streamTexts submits a prepared query and collects the value texts.
func streamTexts(t *testing.T, srv *Server, target string, q *Query) ([]string, error) {
	t.Helper()
	var out []string
	err := srv.SubmitPrepared(context.Background(), target, q, SubmitOptions{}, func(v StreamValue) error {
		out = append(out, v.Text)
		return nil
	})
	return out, err
}

// TestPrepareVerdict: Prepare's verdict is the query's own, so a read-only
// target — which runs every query under its shared lock — still reports a
// write as mutating, and the builtins stay read-only.
func TestPrepareVerdict(t *testing.T) {
	frozen := buildDebuggee(t)
	frozen.ReadOnly = true
	srv := New(Config{Workers: 2})
	defer func() { _ = srv.Shutdown(context.Background()) }()
	srv.Register("rw", buildDebuggee(t))
	srv.Register("ro", frozen)
	for _, tc := range []struct {
		src      string
		mutating bool
	}{
		{"x[..10] >? 0", false},
		{"y := x[2]", false},
		{"frames()", false},
		{"x[0] = 1", true},
		{"x[1]++", true},
		{"int i; i", true},
		{`"abc"[1]`, true},
		{"twice(2)", true},
	} {
		for _, target := range []string{"rw", "ro"} {
			q, err := srv.Prepare(target, tc.src)
			if err != nil {
				t.Fatalf("Prepare(%s, %q): %v", target, tc.src, err)
			}
			if q.Mutating != tc.mutating || q.Src != tc.src {
				t.Errorf("Prepare(%s, %q) = {%q, mutating %v}, want mutating %v", target, tc.src, q.Src, q.Mutating, tc.mutating)
			}
		}
	}
	if _, err := srv.Prepare("rw", "x[1"); err == nil {
		t.Error("Prepare accepted a parse error")
	}
	if _, err := srv.Prepare("nope", "x"); !errors.Is(err, ErrUnknownTarget) {
		t.Errorf("Prepare on an unknown target: %v", err)
	}
	if st := srv.Stats(); st != (Stats{}) {
		t.Errorf("preparing moved the counters: %+v", st)
	}
}

// TestSubmitPrepared: a prepared query answers and counts exactly like its
// source through SubmitStream, on a plain and on a batching node; submitted
// to another target, it is parsed there afresh, against that target's C
// types.
func TestSubmitPrepared(t *testing.T) {
	for _, batch := range []bool{false, true} {
		srv := New(Config{Workers: 2, Batch: BatchConfig{Enabled: batch}})
		other := New(Config{Workers: 2})
		// T names a different C type on each server's target.
		here, there := buildDebuggee(t), buildDebuggee(t)
		here.Typedefs["T"] = here.A.Int
		there.Typedefs["T"] = there.A.Char
		srv.Register("t", here)
		other.Register("t", there)

		q, err := srv.Prepare("t", "x[..5] >? 0")
		if err != nil {
			t.Fatal(err)
		}
		got, err := streamTexts(t, srv, "t", q)
		if err != nil || strings.Join(got, " ") != "3 4 5" {
			t.Errorf("batch=%v: prepared query gave %v, %v; want 3 4 5", batch, got, err)
		}
		st := srv.Stats()
		if st.Admitted != 1 || st.Completed != 1 || st.StreamQueries != 1 || st.StreamValues != 3 {
			t.Errorf("batch=%v: accounting %+v, want one admitted, completed, streamed query of 3 values", batch, st)
		}
		if batch && st.BatchedQueries != 1 {
			t.Errorf("batch=%v: BatchedQueries = %d, want 1", batch, st.BatchedQueries)
		}

		// A Query holds its target's C types: here sizeof(T) is 4, and
		// submitted to the other server's "t" it must be parsed there and
		// answer 1.
		q, err = srv.Prepare("t", "sizeof(T)")
		if err != nil {
			t.Fatal(err)
		}
		if got, err := streamTexts(t, srv, "t", q); err != nil || strings.Join(got, " ") != "4" {
			t.Errorf("batch=%v: sizeof(T) here gave %v, %v; want 4", batch, got, err)
		}
		if got, err := streamTexts(t, other, "t", q); err != nil || strings.Join(got, " ") != "1" {
			t.Errorf("batch=%v: sizeof(T) prepared elsewhere gave %v, %v; want 1", batch, got, err)
		}
		_ = srv.Shutdown(context.Background())
		_ = other.Shutdown(context.Background())
	}
}

// TestSubmitPreparedWrite: a prepared write runs once under the exclusive
// lock and is seen by later reads; against a read-only target it fails with
// the typed capability error.
func TestSubmitPreparedWrite(t *testing.T) {
	frozen := buildDebuggee(t)
	frozen.ReadOnly = true
	srv := New(Config{Workers: 2})
	defer func() { _ = srv.Shutdown(context.Background()) }()
	srv.Register("rw", buildDebuggee(t))
	srv.Register("ro", frozen)

	q, err := srv.Prepare("rw", "x[0] += 10")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := streamTexts(t, srv, "rw", q); err != nil || strings.Join(got, " ") != "13" {
		t.Errorf("prepared write gave %v, %v; want 13", got, err)
	}
	if vals, err := srv.Eval(context.Background(), "rw", "x[0]"); err != nil || vals[0].Text != "13" {
		t.Errorf("read after the prepared write: %v %v", vals, err)
	}

	q, err = srv.Prepare("ro", "x[0] = 1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := streamTexts(t, srv, "ro", q); !errors.Is(err, dbgif.ErrReadOnlyTarget) {
		t.Errorf("prepared write on a read-only target: %v, want ErrReadOnlyTarget", err)
	}
}

// TestSubmitPreparedShared: one Query submitted from many goroutines at
// once — as a hedged pair does with its two attempts — is evaluated
// concurrently by several workers on their own sessions; the AST is only
// read (run it with -race).
func TestSubmitPreparedShared(t *testing.T) {
	srv := New(Config{Workers: 4})
	defer func() { _ = srv.Shutdown(context.Background()) }()
	srv.Register("t", buildDebuggee(t))
	q, err := srv.Prepare("t", "(x[..10] >? 0) + sizeof(int), head-->next->value")
	if err != nil {
		t.Fatal(err)
	}
	want, err := streamTexts(t, srv, "t", q)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var got []string
				err := srv.SubmitPrepared(context.Background(), "t", q, SubmitOptions{Hedge: HedgeOn}, func(v StreamValue) error {
					got = append(got, v.Text)
					return nil
				})
				if err != nil || strings.Join(got, " ") != strings.Join(want, " ") {
					t.Errorf("concurrent prepared query gave %v, %v; want %v", got, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
