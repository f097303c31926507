// Package experiments regenerates the paper's evaluation: every example
// output (T1), the one-liner-vs-C equivalences (T2), the performance claims
// (T3, T4, T5), the implementation-size table (T6), the design-choice
// ablations (T7 backends, T8 cycle handling), and the two figure-shaped
// series (F1 scaling, F2 cost breakdown). EXPERIMENTS.md records the
// paper-vs-measured comparison; cmd/duelexp prints these tables.
package experiments

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"duel"
	"duel/internal/core"
	"duel/internal/dbgif"
	"duel/internal/debugger"
	"duel/internal/duel/value"
	"duel/internal/scenarios"
)

// Run dispatches an experiment by name ("t1".."t8", "f1", "f2", "all").
func Run(w io.Writer, name string) error {
	switch strings.ToLower(name) {
	case "t1":
		return T1(w)
	case "t2":
		return T2(w)
	case "t3":
		return T3(w)
	case "t4":
		return T4(w, T4Runs)
	case "t5":
		return T5(w)
	case "t6":
		return T6(w)
	case "t7":
		return T7(w)
	case "t8":
		return T8(w)
	case "f1":
		return F1(w)
	case "f2":
		return F2(w)
	case "all":
		for _, n := range []string{"t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "f1", "f2"} {
			if err := Run(w, n); err != nil {
				return fmt.Errorf("%s: %w", n, err)
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	return fmt.Errorf("unknown experiment %q (t1..t8, f1, f2, all)", name)
}

// --- T1: example-catalog conformance ---

// T1 replays the full paper catalog on every backend and reports pass/fail.
func T1(w io.Writer) error {
	fmt.Fprintln(w, "T1: paper example catalog (every inline example, all backends)")
	fmt.Fprintln(w, "----------------------------------------------------------------")
	total, failed := 0, 0
	for _, backend := range core.BackendNames() {
		for _, e := range scenarios.Catalog {
			total++
			lines, stdout, err := RunEntry(backend, e)
			status := "PASS"
			detail := ""
			switch {
			case err != nil:
				status, detail = "FAIL", err.Error()
			case strings.Join(lines, "\n") != strings.Join(e.Want, "\n"):
				status, detail = "FAIL", fmt.Sprintf("got %q", lines)
			case stdout != e.WantStdout:
				status, detail = "FAIL", fmt.Sprintf("stdout %q", stdout)
			}
			if status == "FAIL" {
				failed++
				fmt.Fprintf(w, "%-4s [%-7s] %-24s %s\n", status, backend, e.ID, detail)
			}
		}
	}
	fmt.Fprintf(w, "%d/%d catalog runs pass (%d entries x %d backends)\n",
		total-failed, total, len(scenarios.Catalog), len(core.BackendNames()))
	for _, e := range scenarios.Catalog {
		if e.Note != "" {
			fmt.Fprintf(w, "  note %-22s %s\n", e.ID+":", e.Note)
		}
	}
	return nil
}

// paperOptions are the session options of the paper-reproduction
// experiments: the defaults with the page cache off, so one engine read is
// one host round-trip, as in the paper's implementation, and the numbers
// EXPERIMENTS.md quotes keep their meaning.
func paperOptions() duel.Options {
	o := duel.DefaultOptions()
	o.Eval.MemCache = false
	return o
}

// RunEntry executes one catalog entry on a fresh image.
func RunEntry(backend string, e scenarios.Entry) (lines []string, stdout string, err error) {
	var out bytes.Buffer
	d, _, err := scenarios.Build(e.Scenario, &out)
	if err != nil {
		return nil, "", err
	}
	opts := paperOptions()
	opts.Backend = backend
	ses, err := duel.NewSession(d, opts)
	if err != nil {
		return nil, "", err
	}
	for qi, q := range e.Queries {
		err := ses.EvalFunc(q, func(r duel.Result) error {
			lines = append(lines, r.Line())
			return nil
		})
		if err != nil {
			if len(e.WantErr) > 0 && qi == len(e.Queries)-1 {
				for _, frag := range e.WantErr {
					if !strings.Contains(err.Error(), frag) {
						return lines, out.String(), fmt.Errorf("error %q missing %q", err, frag)
					}
				}
				return lines, out.String(), nil
			}
			return lines, out.String(), fmt.Errorf("query %q: %w", q, err)
		}
	}
	if len(e.WantErr) > 0 {
		return lines, out.String(), fmt.Errorf("expected an error containing %q", e.WantErr)
	}
	return lines, out.String(), nil
}

// --- T2: one-liners vs C code ---

// T2 compares each DUEL one-liner against its C-style formulation.
func T2(w io.Writer) error {
	fmt.Fprintln(w, "T2: DUEL one-liners vs the equivalent C formulations")
	fmt.Fprintln(w, "----------------------------------------------------")
	type pair struct {
		name, scenario string
		oneLiner       string
		cStyle         string
		valuesOnly     bool // compare formatted values, not symbolics
	}
	pairs := []pair{
		{
			name: "hash-scope-search", scenario: scenarios.Symtab,
			oneLiner:   "(hash[..1024] !=? 0)->scope >? 5",
			cStyle:     "int i; for (i = 0; i < 1024; i++) if (hash[i] && hash[i]->scope > 5) hash[i]->scope",
			valuesOnly: true,
		},
		{
			name: "hash-scope-search-2", scenario: scenarios.Symtab,
			oneLiner:   "(hash[..1024] !=? 0)->scope >? 5",
			cStyle:     "int i; for (i = 0; i < 1024; i++) if (hash[i]) hash[i]->scope >? 5",
			valuesOnly: true,
		},
		{
			name: "hash-scope-search-3", scenario: scenarios.Symtab,
			oneLiner:   "(hash[..1024] !=? 0)->scope >? 5",
			cStyle:     "int i; for (i = 0; i < 1024; i++) (hash[i] !=? 0)->scope >? 5",
			valuesOnly: true,
		},
		{
			name: "list-duplicates", scenario: scenarios.List,
			oneLiner: "L-->next->(value ==? next-->next->value)",
			cStyle: `struct node *p, *q;
			         for (p = L; p; p = p->next)
			             for (q = p->next; q; q = q->next)
			                 if (p->value == q->value) p->value`,
			valuesOnly: true,
		},
		{
			name: "positive-elements", scenario: scenarios.XSmall,
			oneLiner:   "x[..10] >? 35",
			cStyle:     "int i; for (i = 0; i < 10; i++) if (x[i] > 35) x[i]",
			valuesOnly: true,
		},
	}
	for _, p := range pairs {
		a, err := runValues(p.scenario, p.oneLiner, p.valuesOnly)
		if err != nil {
			return fmt.Errorf("%s one-liner: %w", p.name, err)
		}
		b, err := runValues(p.scenario, p.cStyle, p.valuesOnly)
		if err != nil {
			return fmt.Errorf("%s C style: %w", p.name, err)
		}
		status := "EQUAL"
		if strings.Join(a, ",") != strings.Join(b, ",") {
			status = fmt.Sprintf("DIFFER: %v vs %v", a, b)
		}
		fmt.Fprintf(w, "%-22s %d value(s)  one-liner %2d chars vs C %3d chars  %s\n",
			p.name, len(a), len(compact(p.oneLiner)), len(compact(p.cStyle)), status)
	}
	fmt.Fprintln(w, "(the paper's inner C loop starts at q = p — the hidden bug it mentions;")
	fmt.Fprintln(w, " the corrected q = p->next is used here)")
	return nil
}

func compact(s string) string {
	return strings.Join(strings.Fields(s), " ")
}

func runValues(scenario, query string, valuesOnly bool) ([]string, error) {
	d, _, err := scenarios.Build(scenario, nil)
	if err != nil {
		return nil, err
	}
	ses, err := duel.NewSession(d, paperOptions())
	if err != nil {
		return nil, err
	}
	var out []string
	err = ses.EvalFunc(query, func(r duel.Result) error {
		if valuesOnly {
			out = append(out, r.Text)
		} else {
			out = append(out, r.Line())
		}
		return nil
	})
	return out, err
}

// --- T3: evaluation performance & scaling ---

// T3 measures the paper's timing example x[..N] >? 0.
func T3(w io.Writer) error {
	fmt.Fprintln(w, "T3: x[..N] >? 0 — the paper's timing example")
	fmt.Fprintln(w, "--------------------------------------------")
	fmt.Fprintln(w, "paper: \"x[..10000] >? 0 compiles and executes in about 5 seconds")
	fmt.Fprintln(w, "        on a DECStation 5000\"  (= ~2,000 elements/second)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%10s %14s %16s %14s\n", "N", "time/eval", "elements/sec", "vs paper")
	for _, n := range []int{1000, 10000, 100000, 1000000} {
		per, err := measureScan(n, "push", true)
		if err != nil {
			return err
		}
		eps := float64(n) / per.Seconds()
		fmt.Fprintf(w, "%10d %14s %16.0f %13.0fx\n", n, per.Round(time.Microsecond), eps, eps/2000)
	}
	fmt.Fprintln(w, "\nshape check: time per element is flat (linear scaling), as the")
	fmt.Fprintln(w, "paper's single data point implies; absolute speed reflects the host.")
	return nil
}

// measureScan times one evaluation of "x[..N] >? 0" over a fresh image where
// half the elements are positive.
func measureScan(n int, backend string, symbolic bool) (time.Duration, error) {
	d, err := scenarios.BuildIntArray(n, func(i int) int64 {
		if i%2 == 0 {
			return -int64(i)
		}
		return int64(i)
	})
	if err != nil {
		return 0, err
	}
	opts := paperOptions()
	opts.Backend = backend
	opts.Eval.Symbolic = symbolic
	opts.ShowSymbolic = symbolic
	ses, err := duel.NewSession(d, opts)
	if err != nil {
		return 0, err
	}
	node, err := ses.Parse(fmt.Sprintf("x[..%d] >? 0", n))
	if err != nil {
		return 0, err
	}
	// Time the raw engine (no output formatting), like the paper's
	// evaluation timing: the driver discards values.
	raw := func(v value.Value) error { return nil }
	if err := ses.Backend.Eval(ses.Env, node, raw); err != nil {
		return 0, err
	}
	runs := 600000 / n
	if runs < 2 {
		runs = 2
	}
	if runs > 20 {
		runs = 20
	}
	runtime.GC()
	start := time.Now()
	for i := 0; i < runs; i++ {
		if err := ses.Backend.Eval(ses.Env, node, raw); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(runs), nil
}

// --- T4: symbol-lookup cost ---

// slowSymtab wraps a debugger so GetTargetVariable scans a linear symbol
// table, the way a 1992 debugger searched its symtabs. It makes the paper's
// lookup-cost claim measurable on modern map-based hosts.
type slowSymtab struct {
	dbgif.Debugger
	names []string
}

func newSlowSymtab(d dbgif.Debugger, n int) *slowSymtab {
	s := &slowSymtab{Debugger: d, names: make([]string, n)}
	for i := range s.names {
		s.names[i] = fmt.Sprintf("sym%06d", i)
	}
	return s
}

// GetTargetVariable performs a linear scan before delegating, emulating a
// debugger that searches every symbol-table entry.
func (s *slowSymtab) GetTargetVariable(name string) (dbgif.VarInfo, bool) {
	found := false
	for _, n := range s.names {
		if n == name {
			found = true
		}
	}
	_ = found
	return s.Debugger.GetTargetVariable(name)
}

// T4Runs is the number of timed evaluations per T4 configuration in the
// full experiment.
const T4Runs = 3000

// T4 measures the paper's claim that most of the time evaluating 1..100+i
// goes to the 100 lookups of i, timing runs evaluations per configuration.
func T4(w io.Writer, runs int) error {
	fmt.Fprintln(w, "T4: symbol-lookup cost — \"most of the time in evaluating 1..100+i")
	fmt.Fprintln(w, "    goes to the 100 lookups of i\"")
	fmt.Fprintln(w, "------------------------------------------------------------------")
	d, err := scenarios.BuildIntArray(16, func(int) int64 { return 1 })
	if err != nil {
		return err
	}
	measure := func(host dbgif.Debugger, cache bool, q string) (time.Duration, core.Counters, error) {
		opts := paperOptions()
		opts.Eval.LookupCache = cache
		ses, err := duel.NewSession(host, opts)
		if err != nil {
			return 0, core.Counters{}, err
		}
		n, err := ses.Parse(q)
		if err != nil {
			return 0, core.Counters{}, err
		}
		if err := ses.EvalNode(n, func(duel.Result) error { return nil }); err != nil {
			return 0, core.Counters{}, err
		}
		ses.ResetCounters()
		start := time.Now()
		for i := 0; i < runs; i++ {
			if err := ses.EvalNode(n, func(duel.Result) error { return nil }); err != nil {
				return 0, core.Counters{}, err
			}
		}
		per := time.Since(start) / time.Duration(runs)
		c := ses.Counters()
		c.Lookups /= int64(runs)
		return per, c, nil
	}
	type host struct {
		name string
		d    dbgif.Debugger
	}
	hosts := []host{
		{"map symtab (ours)", d},
		{"linear-scan symtab (1992-style)", newSlowSymtab(d, 20000)},
		{"linear-scan + per-eval lookup cache", newSlowSymtab(d, 20000)},
	}
	for hi, h := range hosts {
		cached := hi == 2
		withLookup, c1, err := measure(h.d, cached, "(1..100)+i")
		if err != nil {
			return err
		}
		noLookup, _, err := measure(h.d, cached, "(1..100)+100")
		if err != nil {
			return err
		}
		share := 1 - float64(noLookup)/float64(withLookup)
		if share < 0 {
			share = 0
		}
		fmt.Fprintf(w, "%-33s (1..100)+i %10s  (1..100)+100 %10s  lookups/eval %d  lookup share %3.0f%%\n",
			h.name, withLookup.Round(time.Microsecond), noLookup.Round(time.Microsecond), c1.Lookups, share*100)
	}
	fmt.Fprintln(w, "\nthe structural claim — one lookup per produced value, 100 per")
	fmt.Fprintln(w, "evaluation — holds by construction (binary operators re-evaluate the")
	fmt.Fprintln(w, "right operand); whether it dominates depends on the host debugger's")
	fmt.Fprintln(w, "symbol tables, which is exactly the paper's point about gdb.")
	return nil
}

// --- T5: symbolic-value overhead ---

// T5 measures the cost of computing symbolic values.
func T5(w io.Writer) error {
	fmt.Fprintln(w, "T5: symbolic-value overhead — \"the computation of the symbolic value")
	fmt.Fprintln(w, "    is more expensive than computing the result\"")
	fmt.Fprintln(w, "---------------------------------------------------------------------")
	fmt.Fprintf(w, "%10s %16s %16s %9s\n", "N", "symbolic on", "symbolic off", "overhead")
	for _, n := range []int{1000, 10000, 100000} {
		on, err := measureScan(n, "push", true)
		if err != nil {
			return err
		}
		off, err := measureScan(n, "push", false)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%10d %16s %16s %8.2fx\n", n,
			on.Round(time.Microsecond), off.Round(time.Microsecond),
			float64(on)/float64(off))
	}
	fmt.Fprintln(w, "\non --> chains every node gets a path (head-->next[[k]]); each is one")
	fmt.Fprintln(w, "derivation step from its parent's, so both columns grow linearly:")
	fmt.Fprintf(w, "%10s %16s %16s %9s\n", "list len", "symbolic on", "symbolic off", "overhead")
	for _, n := range []int{200, 1000, 4000} {
		on, off, err := measureListWalk(n)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%10d %16s %16s %8.2fx\n", n,
			on.Round(time.Microsecond), off.Round(time.Microsecond),
			float64(on)/float64(off))
	}
	fmt.Fprintln(w, "\nthe paper also notes x[i] is computed 1000 times in x[..1000] !=? 0")
	fmt.Fprintln(w, "even if printed once; SymOps counts the O(1) derivation steps and")
	fmt.Fprintln(w, "SymRenders the texts rendered, one per printed value:")
	d, _ := scenarios.BuildIntArray(1000, func(int) int64 { return 1 })
	ses, err := duel.NewSession(d, paperOptions())
	if err != nil {
		return err
	}
	ses.ResetCounters()
	printed := 0
	if err := ses.EvalFunc("x[..1000] !=? 0", func(duel.Result) error { printed++; return nil }); err != nil {
		return err
	}
	c := ses.Counters()
	fmt.Fprintf(w, "x[..1000] !=? 0: %d symbolic compositions, %d rendered texts for %d printed values\n",
		c.SymOps, c.SymRenders, printed)
	return nil
}

// measureListWalk times head-->next->value over an n-node list with the
// symbolic computation on and off.
func measureListWalk(n int) (on, off time.Duration, err error) {
	for _, symbolic := range []bool{true, false} {
		d, err := scenarios.BuildLongList(n)
		if err != nil {
			return 0, 0, err
		}
		opts := paperOptions()
		opts.Eval.Symbolic = symbolic
		ses, err := duel.NewSession(d, opts)
		if err != nil {
			return 0, 0, err
		}
		node, err := ses.Parse("head-->next->value")
		if err != nil {
			return 0, 0, err
		}
		raw := func(v value.Value) error { return nil }
		if err := ses.Backend.Eval(ses.Env, node, raw); err != nil {
			return 0, 0, err
		}
		runs := 200000/n + 1
		runtime.GC()
		start := time.Now()
		for i := 0; i < runs; i++ {
			if err := ses.Backend.Eval(ses.Env, node, raw); err != nil {
				return 0, 0, err
			}
		}
		per := time.Since(start) / time.Duration(runs)
		if symbolic {
			on = per
		} else {
			off = per
		}
	}
	return on, off, nil
}

// --- T6: implementation size ---

// SizeRow is one row of the size table: a directory (relative to the repo
// root) or a summary label, its Go line count, and the paper's C
// counterpart.
type SizeRow struct {
	Module    string
	GoLines   int
	PaperLoc  int // 0 = the paper gives no count
	PaperPart string
}

// T6Rows counts our Go lines per module, then the non-test total of those
// modules and the test lines of the whole repository. EXPERIMENTS.md
// quotes these rows; TestT6Counts keeps the two in step.
func T6Rows() ([]SizeRow, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	rows := []SizeRow{
		{Module: "internal/core", PaperPart: "duel_eval + associated functions", PaperLoc: 700},
		{Module: "internal/duel/value", PaperPart: "operator application + Value manipulation", PaperLoc: 1200},
		{Module: "internal/duel/lexer", PaperPart: "hand-written lexer"},
		{Module: "internal/duel/parser", PaperPart: "yacc-based parser"},
		{Module: "internal/duel/ast", PaperPart: "AST / node definitions"},
		{Module: "internal/duel/display", PaperPart: "symbolic display"},
		{Module: "internal/dbgif", PaperPart: "narrow interface definition"},
		{Module: "internal/debugger", PaperPart: "debugger interface module (gdb glue)", PaperLoc: 400},
		{Module: "internal/ctype", PaperPart: "type representations (substrate)"},
		{Module: "internal/mem", PaperPart: "target address space (substrate)"},
		{Module: "internal/target", PaperPart: "process model (substrate)"},
		{Module: "internal/cparse", PaperPart: "micro-C front end (substrate)"},
		{Module: "internal/microc", PaperPart: "micro-C interpreter (substrate)"},
	}
	total := 0
	for i := range rows {
		loc, err := countGoLines(filepath.Join(root, rows[i].Module), false)
		if err != nil {
			return nil, err
		}
		rows[i].GoLines = loc
		total += loc
	}
	testLoc, err := countGoLines(root, true)
	if err != nil {
		return nil, err
	}
	return append(rows,
		SizeRow{Module: "total (non-test)", GoLines: total},
		SizeRow{Module: "tests (whole repo)", GoLines: testLoc}), nil
}

// T6 prints the size table: our Go lines per module against the paper's
// C line counts.
func T6(w io.Writer) error {
	fmt.Fprintln(w, "T6: implementation size (paper's C lines vs our Go lines)")
	fmt.Fprintln(w, "----------------------------------------------------------")
	rows, err := T6Rows()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-24s %9s %9s  %s\n", "module", "Go lines", "paper C", "paper part")
	for _, r := range rows {
		pc := "-"
		if r.PaperLoc > 0 {
			pc = fmt.Sprint(r.PaperLoc)
		}
		line := fmt.Sprintf("%-24s %9d %9s  %s", r.Module, r.GoLines, pc, r.PaperPart)
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	fmt.Fprintln(w, "\npaper interface-module breakdown (30 duel command / 100 type conversion")
	fmt.Fprintln(w, "/ 100 symbol table / 70 address space / 100 misc): our equivalents live")
	fmt.Fprintln(w, "in internal/debugger (adapter) and internal/dbgif (interface).")
	return nil
}

func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("go.mod not found above %s", dir)
		}
		dir = parent
	}
}

// countGoLines counts lines of .go files under dir; with testsOnly it counts
// only _test.go files (recursively), otherwise non-test files (one level).
func countGoLines(dir string, testsOnly bool) (int, error) {
	total := 0
	walk := func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		isTest := strings.HasSuffix(name, "_test.go")
		if testsOnly != isTest {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		total += bytes.Count(b, []byte("\n"))
		return nil
	}
	if testsOnly {
		return total, filepath.WalkDir(dir, walk)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if err := walk(filepath.Join(dir, e.Name()), e, nil); err != nil {
			return 0, err
		}
	}
	return total, nil
}

// --- T7: generator-backend ablation ---

// t7Runs is the number of timed evaluations per backend and query.
const t7Runs = 15

// T7 times a standard query suite on each backend.
func T7(w io.Writer) error {
	fmt.Fprintln(w, "T7: generator-backend ablation (push closures vs the paper's explicit")
	fmt.Fprintln(w, "    state machine)")
	fmt.Fprintln(w, "----------------------------------------------------------------------")
	queries := []struct{ name, q string }{
		{"scan", "x[..5000] >? 0"},
		{"product", "#/((1..70)*(1..70))"},
		{"nested-alt", "#/(((1,2,3)+(1,2,3))*(1..40))"},
		{"reduction", "+/(x[..5000])"},
	}
	d, err := scenarios.BuildIntArray(5000, func(i int) int64 { return int64(i%7 - 3) })
	if err != nil {
		return err
	}
	backends := []string{"push", "machine"}
	fmt.Fprintf(w, "%-12s", "query")
	for _, b := range backends {
		fmt.Fprintf(w, " %16s", b)
	}
	fmt.Fprintf(w, "   (median of %d evaluations, relative to push)\n", t7Runs)
	raw := func(v value.Value) error { return nil }
	for _, q := range queries {
		// One session per backend, each warmed up by one evaluation; then
		// the backends take turns, swapping which goes first every round,
		// so a slow stretch of a shared host lands on both.
		evals := make([]func() error, len(backends))
		for k, b := range backends {
			opts := paperOptions()
			opts.Backend = b
			ses, err := duel.NewSession(d, opts)
			if err != nil {
				return err
			}
			node, err := ses.Parse(q.q)
			if err != nil {
				return err
			}
			evals[k] = func() error { return ses.Backend.Eval(ses.Env, node, raw) }
			if err := evals[k](); err != nil {
				return err
			}
		}
		times := make([][]time.Duration, len(backends))
		for r := 0; r < t7Runs; r++ {
			for j := range backends {
				k := (j + r) % len(backends)
				start := time.Now()
				if err := evals[k](); err != nil {
					return err
				}
				times[k] = append(times[k], time.Since(start))
			}
		}
		fmt.Fprintf(w, "%-12s", q.name)
		base := medianDuration(times[0])
		for k := range backends {
			per := medianDuration(times[k])
			fmt.Fprintf(w, " %10s %4.1fx", per.Round(time.Microsecond), float64(per)/float64(base))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\nthe paper: \"more efficient implementations of generators are possible\";")
	fmt.Fprintln(w, "closures beat per-call state machines.")
	return nil
}

// medianDuration returns the median of ds, which it sorts.
func medianDuration(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// --- T8: cycle handling ---

// T8 measures the cycle-detection extension.
func T8(w io.Writer) error {
	fmt.Fprintln(w, "T8: cycle handling — the paper's implementation \"does not handle")
	fmt.Fprintln(w, "    cycles\"; detection is our documented extension")
	fmt.Fprintln(w, "------------------------------------------------------------------")
	d, _, err := scenarios.Build(scenarios.List, nil)
	if err != nil {
		return err
	}
	for _, detect := range []bool{false, true} {
		opts := paperOptions()
		opts.Eval.CycleDetect = detect
		ses, err := duel.NewSession(d, opts)
		if err != nil {
			return err
		}
		node, err := ses.Parse("#/(head-->next)")
		if err != nil {
			return err
		}
		if err := ses.EvalNode(node, func(duel.Result) error { return nil }); err != nil {
			return err
		}
		const runs = 2000
		start := time.Now()
		for i := 0; i < runs; i++ {
			if err := ses.EvalNode(node, func(duel.Result) error { return nil }); err != nil {
				return err
			}
		}
		per := time.Since(start) / runs
		fmt.Fprintf(w, "acyclic 12-node walk, cycledetect=%-5v: %s/eval\n", detect, per.Round(time.Nanosecond))
	}
	// Behaviour on a cycle.
	dc, _, err := scenarios.Build(scenarios.List, nil)
	if err != nil {
		return err
	}
	// Close the list into a ring by pointing the tail at the head.
	if err := makeListCyclic(dc); err != nil {
		return err
	}
	optsOff := paperOptions()
	optsOff.Eval.MaxExpand = 10000
	sesOff, _ := duel.NewSession(dc, optsOff)
	errOff := sesOff.EvalFunc("#/(head-->next)", func(duel.Result) error { return nil })
	optsOn := paperOptions()
	optsOn.Eval.CycleDetect = true
	sesOn, _ := duel.NewSession(dc, optsOn)
	var onCount string
	errOn := sesOn.EvalFunc("#/(head-->next)", func(r duel.Result) error {
		onCount = r.Text
		return nil
	})
	fmt.Fprintf(w, "cyclic list, detection off (faithful): %v\n", errOff)
	fmt.Fprintf(w, "cyclic list, detection on (extension): count = %s (err=%v)\n", onCount, errOn)
	return nil
}

// makeListCyclic points the last node's next at the first node.
func makeListCyclic(d *debugger.Debugger) error {
	p := d.P
	headVar, ok := p.Global("head")
	if !ok {
		return fmt.Errorf("no head")
	}
	head, err := p.PeekInt(headVar.Addr, headVar.Type)
	if err != nil {
		return err
	}
	cur := uint64(head)
	for {
		next, err := p.PeekInt(cur+4, headVar.Type)
		if err != nil {
			return err
		}
		if next == 0 {
			return p.PokeInt(cur+4, headVar.Type, head)
		}
		cur = uint64(next)
	}
}

// --- F1: scaling series ---

// F1 prints the values/second vs N series per backend (figure data).
func F1(w io.Writer) error {
	fmt.Fprintln(w, "F1: scaling series — elements/second vs N for x[..N] >? 0")
	fmt.Fprintln(w, "----------------------------------------------------------")
	backends := core.BackendNames()
	fmt.Fprintf(w, "%10s", "N")
	for _, b := range backends {
		fmt.Fprintf(w, " %14s", b)
	}
	fmt.Fprintln(w)
	for _, n := range []int{1000, 10000, 100000} {
		fmt.Fprintf(w, "%10d", n)
		for _, b := range backends {
			per, err := measureScan(n, b, true)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %14.0f", float64(n)/per.Seconds())
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "(flat columns = linear scaling; the paper's single point sits on the")
	fmt.Fprintln(w, "same line at ~2,000 elements/second on 1992 hardware)")
	return nil
}

// --- F2: cost breakdown ---

// F2 prints the instrumentation-counter breakdown per query (figure data).
func F2(w io.Writer) error {
	fmt.Fprintln(w, "F2: where evaluation work goes (counters per produced value)")
	fmt.Fprintln(w, "-------------------------------------------------------------")
	queries := []struct{ name, scenario, q string }{
		{"array-scan", scenarios.XSearch, "x[..60] >? 0"},
		{"list-walk", scenarios.List, "head-->next->value"},
		{"tree-walk", scenarios.Tree, "root-->(left,right)->key"},
		{"hash-search", scenarios.Symtab, "(hash[..1024] !=? 0)->scope >? 5"},
		{"lookup-heavy", scenarios.XSmall, "(1..100)+x[0]"},
	}
	fmt.Fprintf(w, "%-14s %9s %9s %9s %9s %9s %9s\n",
		"query", "values", "lookups", "applies", "symops", "renders", "memreads")
	// run evaluates one query on a fresh image and returns the number of
	// printed values and the session's counters.
	run := func(scenario, q string, opts duel.Options) (int, core.Counters, error) {
		d, _, err := scenarios.Build(scenario, nil)
		if err != nil {
			return 0, core.Counters{}, err
		}
		ses, err := duel.NewSession(d, opts)
		if err != nil {
			return 0, core.Counters{}, err
		}
		printed := 0
		err = ses.EvalFunc(q, func(duel.Result) error { printed++; return nil })
		return printed, ses.Counters(), err
	}
	cached := duel.DefaultOptions()
	var hostReads []string
	for _, q := range queries {
		printed, c, err := run(q.scenario, q.q, paperOptions())
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-14s %9d %9d %9d %9d %9d %9d\n",
			q.name, printed, c.Lookups, c.Applies, c.SymOps, c.SymRenders, c.MemReads)
		_, on, err := run(q.scenario, q.q, cached)
		if err != nil {
			return err
		}
		hostReads = append(hostReads, fmt.Sprintf("%s %d -> %d", q.name, c.HostReads, on.HostReads))
	}
	fmt.Fprintf(w, "host reads, page cache off -> on (the default): %s\n", strings.Join(hostReads, ", "))
	fmt.Fprintln(w, "(symops outnumber applies on symbolic-heavy queries, the paper's")
	fmt.Fprintln(w, "observation; each is an O(1) derivation step, and only the printed")
	fmt.Fprintln(w, "values' texts are rendered)")
	return nil
}
