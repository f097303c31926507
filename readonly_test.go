package duel_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"duel"
	"duel/internal/dbgif"
	"duel/internal/fakedbg"
)

// buildReadOnlyDebuggee builds the shared differential debuggee and then
// freezes it: every mutation past this point fails with ErrReadOnlyTarget,
// exactly like a core-dump substrate.
func buildReadOnlyDebuggee(t *testing.T) dbgif.Debugger {
	t.Helper()
	f := buildFakeDebuggee(t).(*fakedbg.Fake)
	f.ReadOnly = true
	return f
}

// TestReadOnlyTargetReads verifies that freezing the target is invisible to
// pure queries: every backend produces byte-identical output on the writable
// and the read-only debuggee.
func TestReadOnlyTargetReads(t *testing.T) {
	queries := []string{
		"x[..10] >? 4",
		"+/x[..10]",
		"head-->next->value",
		"#/(head-->next)",
		"x[..10] @ (_ < 0)",
	}
	for _, backend := range []string{"push", "machine"} {
		t.Run(backend, func(t *testing.T) {
			rw := execQueries(t, backend, buildFakeDebuggee(t), queries)
			ro := execQueries(t, backend, buildReadOnlyDebuggee(t), queries)
			for i, q := range queries {
				if rw[i] != ro[i] {
					t.Errorf("query %q:\n writable:\n%s\n read-only:\n%s", q, indent(rw[i]), indent(ro[i]))
				}
			}
		})
	}
}

// TestReadOnlyTargetContainment runs every mutating construct against the
// frozen debuggee with ErrorValues on: each write lands as a per-element
// error value ("sym = <read-only target>") instead of aborting, and both
// backends agree byte for byte.
func TestReadOnlyTargetContainment(t *testing.T) {
	cases := []struct {
		query string
		want  string
	}{
		{"x[0] = 5", "x[0] = <read-only target>\n"},
		{"x[1]++", "x[1] = <read-only target>\n"},
		{"--x[2]", "x[2] = <read-only target>\n"},
		{"x[0] += 3", "x[0] = <read-only target>\n"},
		{"twice(3)", "twice(3) = <read-only target>\n"},
		// Containment is per element: the generator keeps enumerating.
		{"x[..3] = 9", "x[0] = <read-only target>\nx[1] = <read-only target>\nx[2] = <read-only target>\n"},
		{"twice(x[2..4])", "twice(x[2]) = <read-only target>\ntwice(x[3]) = <read-only target>\ntwice(x[4]) = <read-only target>\n"},
	}
	queries := make([]string, len(cases))
	for i, c := range cases {
		queries[i] = c.query
	}
	var ref []string
	for _, backend := range []string{"push", "machine"} {
		t.Run(backend, func(t *testing.T) {
			opts := duel.DefaultOptions()
			opts.Backend = backend
			opts.Eval.ErrorValues = true
			got := make([]string, len(queries))
			for i, q := range queries {
				ses, err := duel.NewSession(buildReadOnlyDebuggee(t), opts)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := ses.Exec(&buf, q); err != nil {
					t.Fatalf("query %q: %v", q, err)
				}
				got[i] = buf.String()
				if got[i] != cases[i].want {
					t.Errorf("query %q:\n got:\n%s\n want:\n%s", q, indent(got[i]), indent(cases[i].want))
				}
			}
			if ref == nil {
				ref = got
				return
			}
			for i, q := range queries {
				if got[i] != ref[i] {
					t.Errorf("query %q diverged from push backend:\n got:\n%s\n want:\n%s",
						q, indent(got[i]), indent(ref[i]))
				}
			}
		})
	}
}

// TestReadOnlyTargetAborts checks the strict mode (ErrorValues off) and the
// constructs that always need a writable target: declarations, assignments
// and calls abort with the typed sentinel, identically on every backend.
func TestReadOnlyTargetAborts(t *testing.T) {
	queries := []string{"int i;", "x[0] = 5", "x[1]++", "twice(3)"}
	var ref []string
	for _, backend := range []string{"push", "machine"} {
		t.Run(backend, func(t *testing.T) {
			opts := duel.DefaultOptions()
			opts.Backend = backend
			got := make([]string, len(queries))
			for i, q := range queries {
				ses, err := duel.NewSession(buildReadOnlyDebuggee(t), opts)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				execErr := ses.Exec(&buf, q)
				if execErr == nil {
					t.Fatalf("query %q: expected an error on a read-only target, got output:\n%s",
						q, indent(buf.String()))
				}
				if !errors.Is(execErr, dbgif.ErrReadOnlyTarget) {
					t.Errorf("query %q: error %v does not wrap dbgif.ErrReadOnlyTarget", q, execErr)
				}
				got[i] = execErr.Error()
			}
			if ref == nil {
				ref = got
				return
			}
			for i, q := range queries {
				if got[i] != ref[i] {
					t.Errorf("query %q error diverged from push backend:\n got:  %s\n want: %s",
						q, got[i], ref[i])
				}
			}
		})
	}
}

// TestReadOnlyDeclAlwaysAborts pins down that declarations cannot be
// contained: they allocate target storage, so even with ErrorValues on the
// command fails cleanly instead of registering a dangling alias.
func TestReadOnlyDeclAlwaysAborts(t *testing.T) {
	for _, backend := range []string{"push", "machine"} {
		t.Run(backend, func(t *testing.T) {
			opts := duel.DefaultOptions()
			opts.Backend = backend
			opts.Eval.ErrorValues = true
			ses, err := duel.NewSession(buildReadOnlyDebuggee(t), opts)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			execErr := ses.Exec(&buf, "int i;")
			if execErr == nil {
				t.Fatal("declaration on a read-only target succeeded")
			}
			if !errors.Is(execErr, dbgif.ErrReadOnlyTarget) {
				t.Errorf("error %v does not wrap dbgif.ErrReadOnlyTarget", execErr)
			}
			if !strings.Contains(execErr.Error(), `allocating "i"`) {
				t.Errorf("error %v does not name the declared variable", execErr)
			}
			// The failed declaration must not leave an alias behind.
			var out bytes.Buffer
			if err := ses.Exec(&out, "x[0]"); err != nil {
				t.Errorf("session unusable after failed declaration: %v", err)
			}
		})
	}
}
