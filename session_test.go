package duel_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"duel"
	"duel/internal/core"
	"duel/internal/ctype"
	"duel/internal/debugger"
	"duel/internal/microc"
	"duel/internal/scenarios"
	"duel/internal/target"
)

func TestSessionOptions(t *testing.T) {
	d := newArrayTarget(t)
	// Unknown and removed backends are rejected with an error that names
	// the remaining ones.
	for _, name := range []string{"quantum", "chan", "compiled"} {
		bad := duel.DefaultOptions()
		bad.Backend = name
		_, err := duel.NewSession(d, bad)
		if err == nil {
			t.Errorf("backend %q accepted", name)
			continue
		}
		if want := "(have [machine push])"; !strings.Contains(err.Error(), want) {
			t.Errorf("backend %q rejected with %q, want it to list %s", name, err, want)
		}
	}
	if got := fmt.Sprint(core.BackendNames()); got != "[machine push]" {
		t.Errorf("BackendNames() = %s, want [machine push]", got)
	}
	// Symbolic display off.
	opts := duel.DefaultOptions()
	opts.ShowSymbolic = false
	s := duel.MustNewSession(d, opts)
	var sb strings.Builder
	if err := s.Exec(&sb, "x[2]"); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(sb.String()) != "7" {
		t.Errorf("non-symbolic output = %q", sb.String())
	}
}

func TestSessionMaxOutput(t *testing.T) {
	d := newArrayTarget(t)
	opts := duel.DefaultOptions()
	opts.MaxOutput = 3
	s := duel.MustNewSession(d, opts)
	var sb strings.Builder
	// Truncation stops evaluation but is not an error: the marker line is
	// the caller's signal.
	if err := s.Exec(&sb, "0..100"); err != nil {
		t.Fatalf("truncation surfaced as an error: %v", err)
	}
	if !strings.Contains(sb.String(), "truncated") {
		t.Errorf("no truncation marker:\n%s", sb.String())
	}
	if lines := strings.Count(sb.String(), "\n"); lines != 4 { // 3 values + marker
		t.Errorf("printed %d lines", lines)
	}
}

// TestEvalOptionsNormalized checks that caller-supplied evaluation options
// are normalized field-by-field: explicit settings such as Symbolic: false
// survive even when the safety limits are left zero (they used to be
// clobbered by a wholesale reset to the defaults).
func TestEvalOptionsNormalized(t *testing.T) {
	d := newArrayTarget(t)
	opts := duel.Options{Eval: core.Options{Symbolic: false, MaxSteps: 50}}
	s := duel.MustNewSession(d, opts)
	if _, err := s.Eval("x[..4] >? 0"); err != nil {
		t.Fatal(err)
	}
	if c := s.Counters(); c.SymOps != 0 {
		t.Errorf("SymOps = %d; explicit Symbolic: false was clobbered by normalization", c.SymOps)
	}
	// The zero-valued limits are raised to the defaults, so an unbounded
	// generator still fails loudly instead of hanging; MaxSteps aborts this
	// one long before MaxOpenRange would.
	if _, err := s.Eval("#/(0..)"); err == nil {
		t.Error("unbounded generator ran without a limit")
	}
}

func TestResultLine(t *testing.T) {
	cases := []struct {
		r    duel.Result
		want string
	}{
		{duel.Result{Sym: "x[3]", Text: "7"}, "x[3] = 7"},
		{duel.Result{Sym: "7", Text: "7"}, "7"},
		{duel.Result{Sym: "", Text: "9"}, "9"},
	}
	for _, c := range cases {
		if got := c.r.Line(); got != c.want {
			t.Errorf("Line = %q, want %q", got, c.want)
		}
	}
}

func TestAliasesPersistAndClear(t *testing.T) {
	d := newArrayTarget(t)
	s := duel.MustNewSession(d)
	if _, err := s.Eval("m := 41"); err != nil {
		t.Fatal(err)
	}
	res, err := s.Eval("m + 1")
	if err != nil || len(res) != 1 || res[0].Text != "42" {
		t.Fatalf("alias reuse: %v %v", res, err)
	}
	s.ClearAliases()
	if _, err := s.Eval("m"); err == nil {
		t.Error("alias survived ClearAliases")
	}
}

func TestCountersExposed(t *testing.T) {
	d := newArrayTarget(t)
	s := duel.MustNewSession(d)
	s.ResetCounters()
	if _, err := s.Eval("(1..10)+1"); err != nil {
		t.Fatal(err)
	}
	c := s.Counters()
	if c.Applies < 10 || c.Values == 0 {
		t.Errorf("counters = %+v", c)
	}
}

// TestLP64EndToEnd runs a micro-C program and DUEL queries under the LP64
// data model: 8-byte longs and pointers throughout.
func TestLP64EndToEnd(t *testing.T) {
	p := target.MustNewProcess(target.Config{Model: ctype.LP64, DataSize: 1 << 20, HeapSize: 1 << 20, StackSize: 1 << 16})
	d := debugger.New(p)
	in, err := microc.Load(p, d, `
struct node { long v; struct node *next; };
struct node *head;
long big = 5000000000;

void push(long val) {
	struct node *n;
	n = (struct node *) malloc(sizeof(struct node));
	n->v = val;
	n->next = head;
	head = n;
}
int main() { push(1); push(2); push(3); return 0; }
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.RunMain(nil); err != nil {
		t.Fatal(err)
	}
	s := duel.MustNewSession(d)

	res, err := s.Eval("sizeof(struct node)")
	if err != nil || len(res) != 1 || res[0].Text != "16" {
		t.Fatalf("LP64 sizeof(struct node) = %v, %v (want 16)", res, err)
	}
	res, err = s.Eval("big")
	if err != nil || res[0].Text != "5000000000" {
		t.Fatalf("LP64 long value = %v, %v", res, err)
	}
	var lines []string
	if err := s.EvalFunc("head-->next->v", func(r duel.Result) error {
		lines = append(lines, r.Line())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"head->v = 3", "head->next->v = 2", "head->next->next->v = 1"}
	if strings.Join(lines, "|") != strings.Join(want, "|") {
		t.Errorf("LP64 list walk = %q", lines)
	}
}

// TestErrorMessageFormat checks the paper's "Illegal memory reference"
// message shape through the public API.
func TestErrorMessageFormat(t *testing.T) {
	d := newArrayTarget(t)
	s := duel.MustNewSession(d)
	_, err := s.Eval("((struct nothing *)8)->f")
	if err == nil {
		t.Skip("struct tag unknown; covered in debugger tests")
	}
	d2 := testScenario(t, scenarios.Symtab)
	s2 := duel.MustNewSession(d2)
	_, err = s2.Eval("((struct symbol *)48)->scope")
	if err == nil {
		t.Fatal("dereference through invalid pointer succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, "Illegal memory reference") || !strings.Contains(msg, "0x30") {
		t.Errorf("message = %q", msg)
	}
}

// TestNullGuardIdiom exercises the paper's "_ &&" guard: evaluating fields
// through NULL errors, but guarding with _ does not.
func TestNullGuardIdiom(t *testing.T) {
	d := testScenario(t, scenarios.Symtab)
	s := duel.MustNewSession(d)
	// Unguarded: hash[2] is NULL, field access faults.
	if _, err := s.Eval("hash[2]->scope"); err == nil {
		t.Error("field through NULL succeeded")
	}
	// Guarded: no error, no values.
	res, err := s.Eval("hash[2]->(if (_ && scope > 5) name)")
	if err != nil {
		t.Errorf("guarded access failed: %v", err)
	}
	if len(res) != 0 {
		t.Errorf("guarded access produced %v", res)
	}
}

func TestLookupCacheOption(t *testing.T) {
	d := newArrayTarget(t)
	opts := duel.DefaultOptions()
	opts.Eval.LookupCache = true
	s := duel.MustNewSession(d, opts)
	res, err := s.Eval("(1..5)+x[0]")
	if err != nil || len(res) != 5 {
		t.Fatalf("cached eval: %v, %v", res, err)
	}
	// Mutation between evals must be visible (the cache is per-eval).
	if _, err := s.Eval("x[0] = 9"); err != nil {
		t.Fatal(err)
	}
	res, err = s.Eval("x[0]")
	if err != nil || res[0].Text != "9" {
		t.Errorf("stale value after mutation: %v", res)
	}
}

// TestMemCacheRoundTrips is the acceptance check for the memio layer: with
// the page cache on, the paper's 100k-element scan issues >10x fewer
// GetTargetBytes round-trips to the host debugger while asking for exactly
// the same bytes and printing exactly the same output.
func TestMemCacheRoundTrips(t *testing.T) {
	const n = 100000
	query := "x[..100000] >? 0"
	run := func(cache bool) (string, core.Counters) {
		t.Helper()
		d, err := scenarios.BuildIntArray(n, func(i int) int64 { return int64(i%7) - 3 })
		if err != nil {
			t.Fatal(err)
		}
		opts := duel.DefaultOptions()
		opts.Eval.MemCache = cache
		s := duel.MustNewSession(d, opts)
		var sb strings.Builder
		if err := s.Exec(&sb, query); err != nil {
			t.Fatal(err)
		}
		return sb.String(), s.Counters()
	}
	outOff, off := run(false)
	outOn, on := run(true)
	if outOff != outOn {
		t.Fatalf("output differs cache-on vs cache-off:\n off %d bytes\n on  %d bytes", len(outOff), len(outOn))
	}
	// The engine-side trace is identical: same requests, same bytes.
	if off.TargetReads != on.TargetReads || off.TargetBytes != on.TargetBytes {
		t.Errorf("engine read trace differs: off %d reads/%d bytes, on %d reads/%d bytes",
			off.TargetReads, off.TargetBytes, on.TargetReads, on.TargetBytes)
	}
	// Cache off is faithful: one host round-trip per engine read.
	if off.HostReads != off.TargetReads {
		t.Errorf("cache off: %d host reads for %d engine reads", off.HostReads, off.TargetReads)
	}
	if on.HostReads*10 >= off.HostReads {
		t.Errorf("cache on: %d host reads vs %d off — want >10x fewer", on.HostReads, off.HostReads)
	}
	if on.CacheHits == 0 || on.CacheMisses == 0 {
		t.Errorf("cache counters not merged: %+v", on)
	}
}

// TestMemCacheListWalk checks the other hot shape from the paper — a -->next
// list walk — stays correct and cheaper with the cache on, including after a
// mutation through the session: a store drops the page the same evaluation
// read just before it (write-through invalidation), and the next
// evaluation starts with an empty cache.
func TestMemCacheListWalk(t *testing.T) {
	run := func(cache bool) (string, core.Counters) {
		t.Helper()
		d, err := scenarios.BuildLongList(500)
		if err != nil {
			t.Fatal(err)
		}
		opts := duel.DefaultOptions()
		opts.Eval.MemCache = cache
		s := duel.MustNewSession(d, opts)
		var sb strings.Builder
		if err := s.Exec(&sb, "#/(head-->next)"); err != nil {
			t.Fatal(err)
		}
		// Mutate through the session, then re-read: the cache must not
		// serve the stale head value.
		if err := s.Exec(&sb, "head->value, head->value = 4242, head->value"); err != nil {
			t.Fatal(err)
		}
		if err := s.Exec(&sb, "head->value"); err != nil {
			t.Fatal(err)
		}
		return sb.String(), s.Counters()
	}
	outOff, off := run(false)
	outOn, on := run(true)
	if outOff != outOn {
		t.Fatalf("output differs cache-on vs cache-off:\n off:\n%s\n on:\n%s", outOff, outOn)
	}
	if lines := strings.Split(strings.TrimSpace(outOn), "\n"); len(lines) < 2 ||
		lines[len(lines)-2] != "head->value = 4242" || lines[len(lines)-1] != "head->value = 4242" {
		t.Fatalf("stale value after write-through invalidation:\n%s", outOn)
	}
	if on.HostReads >= off.HostReads {
		t.Errorf("list walk: cache on issued %d host reads, off %d", on.HostReads, off.HostReads)
	}
	if on.Invalidations == 0 {
		t.Errorf("no invalidations recorded after a store: %+v", on)
	}
}

// TestConcurrentSessionsSharedProcess runs several cache-enabled sessions
// concurrently over one simulated process; run under -race (CI does) this
// pins down that each session's accessor is internally synchronized.
func TestConcurrentSessionsSharedProcess(t *testing.T) {
	d, err := scenarios.BuildIntArray(4096, func(i int) int64 { return int64(i) - 2048 })
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{"x[..512] >? 500", "+/x[..1024]", "#/(x[..2048] <? 0)"}
	var want []string
	{
		s := duel.MustNewSession(d)
		for _, q := range queries {
			var sb strings.Builder
			if err := s.Exec(&sb, q); err != nil {
				t.Fatal(err)
			}
			want = append(want, sb.String())
		}
	}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			opts := duel.DefaultOptions()
			opts.Eval.MemCache = true
			s := duel.MustNewSession(d, opts)
			for i := 0; i < 5; i++ {
				for qi, q := range queries {
					var sb strings.Builder
					if err := s.Exec(&sb, q); err != nil {
						errc <- err
						return
					}
					if sb.String() != want[qi] {
						errc <- fmt.Errorf("goroutine %d query %q diverged", g, q)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// testScenario builds one canned debuggee, failing the test (not the
// process) on error — scenarios.Build no longer panics.
func testScenario(t *testing.T, name string) *debugger.Debugger {
	t.Helper()
	d, _, err := scenarios.Build(name, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}
