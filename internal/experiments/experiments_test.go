package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"duel/internal/core"
	"duel/internal/scenarios"
)

// TestT1AllPass asserts the conformance experiment reports a full pass.
func TestT1AllPass(t *testing.T) {
	var sb bytes.Buffer
	if err := T1(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, "FAIL") {
		t.Errorf("T1 reports failures:\n%s", out)
	}
	runs := len(scenarios.Catalog) * len(core.BackendNames())
	summary := fmt.Sprintf("%d/%d catalog runs pass", runs, runs)
	if !strings.Contains(out, summary) {
		t.Errorf("missing summary %q:\n%s", summary, out)
	}
	// EXPERIMENTS.md quotes the entry and run counts.
	doc := experimentsDoc(t)
	for _, want := range []string{
		fmt.Sprintf("all %d entries", len(scenarios.Catalog)),
		fmt.Sprintf("**%d/%d runs pass**", runs, runs),
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("EXPERIMENTS.md T1 does not say %q", want)
		}
	}
}

// experimentsDoc returns EXPERIMENTS.md from the repository root.
func experimentsDoc(t *testing.T) string {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestT2AllEqual asserts every one-liner matches its C formulation.
func TestT2AllEqual(t *testing.T) {
	var sb bytes.Buffer
	if err := T2(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "DIFFER") {
		t.Errorf("T2 mismatch:\n%s", sb.String())
	}
}

// TestT6Counts sanity-checks the size table against the real tree, and
// holds the table EXPERIMENTS.md quotes to the same rows and counts: a
// change that moves a line count must regenerate the document.
func TestT6Counts(t *testing.T) {
	var sb bytes.Buffer
	if err := T6(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, mod := range []string{"internal/core", "internal/duel/value", "internal/debugger"} {
		if !strings.Contains(out, mod) {
			t.Errorf("T6 missing %s:\n%s", mod, out)
		}
	}
	rows, err := T6Rows()
	if err != nil {
		t.Fatal(err)
	}
	doc := t6DocRows(t, experimentsDoc(t))
	if len(doc) != len(rows) {
		t.Errorf("EXPERIMENTS.md T6 has %d rows, duelexp t6 prints %d", len(doc), len(rows))
	}
	for _, r := range rows {
		got, ok := doc[r.Module]
		switch {
		case !ok:
			t.Errorf("EXPERIMENTS.md T6 has no row for %s (%d lines)", r.Module, r.GoLines)
		case got != r.GoLines:
			t.Errorf("EXPERIMENTS.md T6 says %s is %d lines; duelexp t6 counts %d", r.Module, got, r.GoLines)
		}
	}
}

// t6DocRows parses the T6 table of EXPERIMENTS.md into module → Go lines.
// Bold markers and thousands separators are dropped.
func t6DocRows(t *testing.T, doc string) map[string]int {
	t.Helper()
	_, sec, ok := strings.Cut(doc, "## T6")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no T6 section")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	rows := map[string]int{}
	for _, line := range strings.Split(sec, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 || cells[0] != "" {
			continue
		}
		clean := func(s string) string {
			return strings.NewReplacer("**", "", ",", "").Replace(strings.TrimSpace(s))
		}
		n, err := strconv.Atoi(clean(cells[2]))
		if err != nil {
			continue // header and separator rows
		}
		rows[clean(cells[1])] = n
	}
	return rows
}

// TestF2Runs checks the counter breakdown produces all rows.
func TestF2Runs(t *testing.T) {
	var sb bytes.Buffer
	if err := F2(&sb); err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{"array-scan", "list-walk", "tree-walk", "hash-search", "lookup-heavy"} {
		if !strings.Contains(sb.String(), row) {
			t.Errorf("F2 missing row %s", row)
		}
	}
}

// TestT8Behaviour checks cycle behaviour without timing assertions.
func TestT8Behaviour(t *testing.T) {
	var sb bytes.Buffer
	if err := T8(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "count = 12") {
		t.Errorf("cycle detection did not see 12 nodes:\n%s", out)
	}
	if !strings.Contains(out, "exceeded") {
		t.Errorf("faithful mode did not fail loudly on the cycle:\n%s", out)
	}
}

// TestRunDispatch covers the name dispatcher.
func TestRunDispatch(t *testing.T) {
	if err := Run(&bytes.Buffer{}, "nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := Run(&bytes.Buffer{}, "T2"); err != nil {
		t.Errorf("case-insensitive dispatch failed: %v", err)
	}
}

// TestT4Shape runs a small instance of the lookup-cost experiment (20
// timed evaluations per configuration; duelexp t4 runs T4Runs) and checks
// that every configuration reports and that an evaluation makes the
// paper's 100 lookups.
func TestT4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	var sb bytes.Buffer
	if err := T4(&sb, 20); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"map symtab", "linear-scan symtab", "lookup cache", "lookups/eval 100"} {
		if !strings.Contains(out, want) {
			t.Errorf("T4 missing %q:\n%s", want, out)
		}
	}
}

// TestF1Shape runs the scaling series and checks every backend has a
// column.
func TestF1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	var sb bytes.Buffer
	if err := F1(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "machine") || !strings.Contains(sb.String(), "push") {
		t.Errorf("F1 missing backend columns:\n%s", sb.String())
	}
}
