package duel_test

import (
	"bytes"
	"strings"
	"testing"

	"duel"
	"duel/internal/dbgif"
	"duel/internal/scenarios"
)

// runEntry executes one catalog entry on a fresh scenario image and returns
// the result lines and the target's stdout.
func runEntry(t *testing.T, backend string, e scenarios.Entry) (lines []string, stdout string) {
	t.Helper()
	d, out := buildEntry(t, e)
	return runEntryOn(t, d, out, backend, e)
}

// buildEntry builds the scenario image of a catalog entry; the returned
// buffer collects the target's stdout.
func buildEntry(t *testing.T, e scenarios.Entry) (dbgif.Debugger, *bytes.Buffer) {
	t.Helper()
	out := new(bytes.Buffer)
	d, _, err := scenarios.Build(e.Scenario, out)
	if err != nil {
		t.Fatalf("building scenario %q: %v", e.Scenario, err)
	}
	return d, out
}

// runEntryOn executes one catalog entry on the image d, whose target
// stdout goes to out.
func runEntryOn(t *testing.T, d dbgif.Debugger, out *bytes.Buffer, backend string, e scenarios.Entry) (lines []string, stdout string) {
	t.Helper()
	opts := duel.DefaultOptions()
	opts.Backend = backend
	s := duel.MustNewSession(d, opts)
	for qi, q := range e.Queries {
		err := s.EvalFunc(q, func(r duel.Result) error {
			lines = append(lines, r.Line())
			return nil
		})
		if err != nil {
			// Only the last query of a WantErr entry may fail.
			if len(e.WantErr) > 0 && qi == len(e.Queries)-1 {
				for _, frag := range e.WantErr {
					if !strings.Contains(err.Error(), frag) {
						t.Fatalf("entry %s: error %q missing %q", e.ID, err, frag)
					}
				}
				return lines, out.String()
			}
			t.Fatalf("entry %s: query %q: %v", e.ID, q, err)
		}
	}
	if len(e.WantErr) > 0 {
		t.Fatalf("entry %s: expected an error containing %q", e.ID, e.WantErr)
	}
	return lines, out.String()
}

// TestPaperCatalog replays every example from the paper (experiment T1).
func TestPaperCatalog(t *testing.T) {
	for _, e := range scenarios.Catalog {
		t.Run(e.ID, func(t *testing.T) {
			lines, stdout := runEntry(t, "push", e)
			if got, want := strings.Join(lines, "\n"), strings.Join(e.Want, "\n"); got != want {
				t.Errorf("result lines:\n got:\n%s\n want:\n%s", indent(got), indent(want))
			}
			if stdout != e.WantStdout {
				t.Errorf("target stdout:\n got  %q\n want %q", stdout, e.WantStdout)
			}
		})
	}
}

func indent(s string) string {
	if s == "" {
		return "  (none)"
	}
	return "  " + strings.ReplaceAll(s, "\n", "\n  ")
}

// TestCatalogIDsUnique guards the experiment index.
func TestCatalogIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range scenarios.Catalog {
		if seen[e.ID] {
			t.Errorf("duplicate catalog id %q", e.ID)
		}
		seen[e.ID] = true
		if len(e.Queries) == 0 {
			t.Errorf("catalog entry %q has no queries", e.ID)
		}
	}
	if len(scenarios.Catalog) < 40 {
		t.Errorf("catalog has only %d entries; the paper has more examples", len(scenarios.Catalog))
	}
}
