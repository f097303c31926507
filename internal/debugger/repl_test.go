package debugger

import (
	"strings"
	"testing"

	"duel/internal/ctype"
	"duel/internal/target"
)

const listProgram = `
struct node { int v; struct node *next; };
struct node *head;
void push(int val) {
	struct node *n;
	n = (struct node *) malloc(sizeof(struct node));
	n->v = val;
	n->next = head;
	head = n;
}
int total() {
	int s = 0;
	struct node *q;
	q = head;
	while (q) { s = s + q->v; q = q->next; }
	return s;
}
int main() { push(1); push(2); push(3); return total(); }
`

// runScript feeds commands to a fresh REPL and returns its full output.
func runScript(t *testing.T, program string, commands ...string) string {
	t.Helper()
	var out strings.Builder
	in := strings.NewReader(strings.Join(commands, "\n") + "\n")
	cfg := target.Config{Model: ctype.ILP32, DataSize: 1 << 20, HeapSize: 1 << 20, StackSize: 1 << 18}
	r, err := NewREPL(program, in, &out, cfg)
	if err != nil {
		t.Fatalf("NewREPL: %v", err)
	}
	if err := r.Loop(); err != nil {
		t.Fatalf("Loop: %v", err)
	}
	return out.String()
}

func TestRunAndQuery(t *testing.T) {
	out := runScript(t, listProgram,
		"run",
		"duel head-->next->v",
		"duel #/(head-->next)",
		"print total()",
		"quit",
	)
	for _, want := range []string{
		"program exited with code 6",
		"head->v = 3",
		"head->next->v = 2",
		"head->next->next->v = 1",
		"total() = 6",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestBreakpointsAndFrames(t *testing.T) {
	out := runScript(t, listProgram,
		"break total",
		"run",
		"backtrace",
		"step",
		"info locals",
		"duel s",
		"frame 1",
		"frame 0",
		"continue",
		"quit",
	)
	for _, want := range []string{
		"breakpoint at total",
		"stopped in total",
		"#1  main",
		"int s",
		"s = 0",
		"program exited with code 6",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestStepping(t *testing.T) {
	out := runScript(t, listProgram,
		"break total",
		"run",
		"step",
		"step",
		"step",
		"step",
		"duel s",
		"continue",
		"quit",
	)
	if c := strings.Count(out, "stopped in total"); c < 5 {
		t.Errorf("expected 5 stops, saw %d:\n%s", c, out)
	}
}

func TestFrameLocalsViaDuel(t *testing.T) {
	// frame(i) scopes: the paper's "local x in all active frames" wish.
	out := runScript(t, `
int depth3(int n) {
	int local;
	local = n * 11;
	if (n > 0) return depth3(n - 1);
	return local;
}
int main() { return depth3(2); }
`,
		"break 6", // "return local;", reached only in the innermost call
		"run",
		"duel frame(0..2).local",
		"duel frames()",
		"continue",
		"quit",
	)
	for _, want := range []string{
		"frame(0).local = 0",
		"frame(1).local = 11",
		"frame(2).local = 22",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestLineBreakpointAndDelete(t *testing.T) {
	out := runScript(t, listProgram,
		"break 13",
		"info breakpoints",
		"run",
		"delete 13",
		"continue",
		"quit",
	)
	if !strings.Contains(out, "line 13") || !strings.Contains(out, "stopped in total at line 13") {
		t.Errorf("line breakpoint did not fire:\n%s", out)
	}
}

func TestMutationThroughDuel(t *testing.T) {
	out := runScript(t, listProgram,
		"run",
		"duel head-->next->v = 9 ;",
		"duel +/(head-->next->v)",
		"call total()",
		"quit",
	)
	if !strings.Contains(out, "27") {
		t.Errorf("bulk mutation missed (want sum 27):\n%s", out)
	}
	if !strings.Contains(out, "total() = 27") {
		t.Errorf("target disagrees after mutation:\n%s", out)
	}
}

func TestSetCommands(t *testing.T) {
	out := runScript(t, listProgram,
		"set backend machine",
		"run",
		"duel head-->next->v",
		"set backend chan",
		"set backend compiled",
		"duel head-->next->v",
		"set symbolic off",
		"duel head-->next->v",
		"counters",
		"quit",
	)
	if strings.Count(out, "head->v = 3") != 2 {
		t.Errorf("backend switch output wrong:\n%s", out)
	}
	// A removed backend is rejected with an error naming the remaining
	// ones, and the session stays on the backend it had.
	for _, name := range []string{"chan", "compiled"} {
		want := `unknown evaluator backend "` + name + `" (have [machine push])`
		if !strings.Contains(out, want) {
			t.Errorf("removed backend %s not rejected clearly:\n%s", name, out)
		}
	}
	// With symbolic off only bare values print.
	if !strings.Contains(out, "3\n2\n1\n") {
		t.Errorf("non-symbolic output missing:\n%s", out)
	}
}

func TestErrorsReported(t *testing.T) {
	out := runScript(t, listProgram,
		"duel nosuch",
		"break nosuchfunc",
		"frame 5",
		"bogus",
		"continue",
		"quit",
	)
	for _, want := range []string{
		"no symbol \"nosuch\"",
		"no function \"nosuchfunc\"",
		"no frame 5",
		"unknown command",
		"not running",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestQuitDuringRun(t *testing.T) {
	out := runScript(t, listProgram,
		"break total",
		"run",
		"quit",
		"quit",
	)
	if !strings.Contains(out, "run aborted") {
		t.Errorf("quit during run did not abort:\n%s", out)
	}
}

func TestDuelIllegalMemoryMessage(t *testing.T) {
	// The paper's error-message format for invalid pointers.
	out := runScript(t, `
struct node { int v; struct node *next; };
struct node *p;
int main() { p = (struct node *) 48; return 0; }
`,
		"run",
		"duel p->v",
		"quit",
	)
	if !strings.Contains(out, "Illegal memory reference") || !strings.Contains(out, "p") {
		t.Errorf("error message format wrong:\n%s", out)
	}
}

func TestConditionalBreakpoint(t *testing.T) {
	out := runScript(t, `
int calls;
int f(int n) {
	calls = calls + 1;
	return n;
}
int main() {
	int i;
	for (i = 0; i < 10; i = i + 1) f(i);
	return calls;
}
`,
		"break f if n == 7",
		"run",
		"duel n",
		"continue",
		"quit",
	)
	if strings.Count(out, "stopped in f") != 1 {
		t.Errorf("conditional breakpoint fired wrong number of times:\n%s", out)
	}
	if !strings.Contains(out, "n = 7") {
		t.Errorf("stopped at wrong call:\n%s", out)
	}
}

func TestWatchpoint(t *testing.T) {
	out := runScript(t, `
int g;
void setg(int n) { g = n; }
int main() {
	setg(5);
	setg(5);
	setg(9);
	return g;
}
`,
		"watch g",
		"run",
		"continue", // first change: 0 -> 5
		"continue", // second change: 5 -> 9
		"quit",
	)
	if !strings.Contains(out, "watchpoint 1: g") {
		t.Fatalf("watchpoint not set:\n%s", out)
	}
	// Exactly two changes (the second setg(5) must not trigger).
	if c := strings.Count(out, "(watchpoint 1)"); c != 2 {
		t.Errorf("watchpoint fired %d times, want 2:\n%s", c, out)
	}
	for _, want := range []string{"old: g = 0", "new: g = 5", "new: g = 9"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestWatchpointGeneratorExpression(t *testing.T) {
	// Watch a whole value sequence, not just one variable: the list length.
	out := runScript(t, listProgram,
		"watch #/(head-->next)",
		"run",
		"continue",
		"continue",
		"continue",
		"quit",
	)
	if c := strings.Count(out, "(watchpoint 1)"); c != 3 {
		t.Errorf("list-length watch fired %d times, want 3 (one per push):\n%s", c, out)
	}
}

func TestUnwatchAndInfo(t *testing.T) {
	out := runScript(t, listProgram,
		"watch head",
		"watch total",
		"info watchpoints",
		"unwatch 1",
		"info watchpoints",
		"unwatch",
		"info watchpoints",
		"run",
		"quit",
	)
	if !strings.Contains(out, "no watchpoints") {
		t.Errorf("unwatch-all failed:\n%s", out)
	}
	if !strings.Contains(out, "2: total") {
		t.Errorf("info watchpoints missing entry:\n%s", out)
	}
	if !strings.Contains(out, "program exited") {
		t.Errorf("run after unwatch failed:\n%s", out)
	}
}

func TestBadConditionReportedOnce(t *testing.T) {
	out := runScript(t, listProgram,
		"break total if nosuchvar > 1",
		"run",
		"quit",
	)
	if c := strings.Count(out, "treated as false"); c != 1 {
		t.Errorf("condition error reported %d times, want once:\n%s", c, out)
	}
	if !strings.Contains(out, "program exited") {
		t.Errorf("run did not complete:\n%s", out)
	}
}

func TestAssertions(t *testing.T) {
	// The paper's Discussion example: "x[0] through x[n] are positive".
	out := runScript(t, `
int x[8];
int main() {
	int i;
	for (i = 0; i < 8; i = i + 1)
		x[i] = 1 + i;
	x[5] = -3;          /* the violation */
	x[6] = 100;
	return 0;
}
`,
		"assert x[0..7] >= 0",
		"run",
		"duel x[5]",
		"continue",
		"assert",
		"quit",
	)
	for _, want := range []string{
		"assertion 1: x[0..7] >= 0",
		"assertion 1 violated",
		"x[5]>=0 = 0",
		"x[5] = -3",
		"(disabled)",
		"program exited with code 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	// The assertion must stop exactly once (disabled after firing).
	if c := strings.Count(out, "assertion 1 violated"); c != 1 {
		t.Errorf("violated %d times", c)
	}
}

func TestHistory(t *testing.T) {
	out := runScript(t, listProgram,
		"run",
		"duel #/(head-->next)",
		"history",
		"!2",
		"quit",
	)
	if !strings.Contains(out, "  1  run") || !strings.Contains(out, "2  duel #/(head-->next)") {
		t.Errorf("history listing wrong:\n%s", out)
	}
	// !2 echoes the command and re-runs the count.
	if c := strings.Count(out, "3\n"); c < 2 {
		t.Errorf("!2 re-execution: count lines = %d\n%s", c, out)
	}
	out = runScript(t, listProgram, "!99", "quit")
	if !strings.Contains(out, "no history entry") {
		t.Errorf("bad !n accepted:\n%s", out)
	}
}

func TestMicroCAssertNative(t *testing.T) {
	out := runScript(t, `
int main() {
	assert(1);
	assert(2 > 1);
	assert(0);
	return 0;
}
`,
		"run",
		"quit",
	)
	if !strings.Contains(out, "assertion failed") {
		t.Errorf("native assert did not fire:\n%s", out)
	}
}

func TestListAndInfoTypes(t *testing.T) {
	out := runScript(t, listProgram,
		"break total",
		"run",
		"list",
		"list 2",
		"continue",
		"info types",
		"quit",
	)
	if !strings.Contains(out, "=>") || !strings.Contains(out, "int s = 0;") {
		t.Errorf("list missing stop marker or source:\n%s", out)
	}
	if !strings.Contains(out, "struct node  (8 bytes, 2 members)") {
		t.Errorf("info types missing struct:\n%s", out)
	}
}

// TestTraceMode reproduces the paper's §Semantics walkthrough of
// (1..3)+(5,9): the trace shows the alternate node being re-evaluated for
// every value of the to node, ending in NOVALUE.
func TestTraceMode(t *testing.T) {
	out := runScript(t, listProgram,
		"set trace on",
		"duel (1..3)+(5,9)",
		"set trace off",
		"duel 1+1",
		"quit",
	)
	for _, want := range []string{
		"eval(to) -> 1",
		"eval(alternate) -> 5",
		"eval(alternate) -> 9",
		"eval(alternate) -> NOVALUE",
		"eval(plus) -> 6",
		"eval(plus) -> 12",
		"eval(plus) -> NOVALUE",
		"3+9 = 12",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
	// The (5,9) alternation restarts once per left value: three 5s.
	if c := strings.Count(out, "eval(alternate) -> 5"); c != 3 {
		t.Errorf("alternate restarted %d times, want 3", c)
	}
	// After "set trace off" no further eval lines appear.
	tail := out[strings.LastIndex(out, "trace = false"):]
	if strings.Contains(tail, "eval(") {
		t.Errorf("trace lines after off:\n%s", tail)
	}

	// Member names on the right of -> and --> are logged like any other
	// eval call: one value, then NOVALUE, per opened struct.
	out = runScript(t, listProgram,
		"run",
		"set trace on",
		"duel head->v",
		"duel head-->next->v",
		"quit",
	)
	for _, want := range []string{
		"  eval(name) -> 3\neval(witharrow) -> 3\nhead->v = 3\n" +
			"  eval(name) -> NOVALUE\n  eval(name) -> NOVALUE\neval(witharrow) -> NOVALUE\n",
		"  eval(name) -> 2\neval(witharrow) -> 2\nhead->next->v = 2\n",
		"    eval(name) -> 0x0\n    eval(name) -> NOVALUE\n  eval(dfs) -> 0x",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
	if c := strings.Count(out, "  eval(dfs) -> 0x"); c != 3 {
		t.Errorf("--> visited %d nodes, want 3:\n%s", c, out)
	}
}

// TestLimitFiredMessages: when a safety limit aborts a query, the REPL says
// which limit fired and how to raise it, and the prompt stays usable.
func TestLimitFiredMessages(t *testing.T) {
	out := runScript(t, listProgram,
		"run",
		"set maxsteps 10",
		"duel #/(0..1000000)",
		"set maxsteps 0",
		"set timeout 50ms",
		"duel #/(0..2000000000)",
		"duel 1+1",
		"quit",
	)
	if !strings.Contains(out, `step limit MaxSteps = 10 fired; raise it with "set maxsteps <n>"`) {
		t.Errorf("missing step-limit report:\n%s", out)
	}
	if !strings.Contains(out, `time limit Timeout = 50ms fired; raise it with "set timeout <duration>"`) {
		t.Errorf("missing time-limit report:\n%s", out)
	}
	if !strings.Contains(out, "1+1 = 2") {
		t.Errorf("prompt unusable after limit aborts:\n%s", out)
	}
}

// TestFaultsCommand: arming, observing, and disarming the fault injector
// from the prompt.
func TestFaultsCommand(t *testing.T) {
	out := runScript(t, listProgram,
		"run",
		"duel head->v",
		"faults unmapped=1 seed=3",
		"duel head->v",
		"faults",
		"faults off",
		"duel head->v",
		"quit",
	)
	if !strings.Contains(out, "head->v = 3") {
		t.Errorf("healthy query failed before arming:\n%s", out)
	}
	if !strings.Contains(out, "Illegal memory reference") {
		t.Errorf("armed unmapped=1 query did not fault:\n%s", out)
	}
	if !strings.Contains(out, "faults armed:") || !strings.Contains(out, "unmapped=1") {
		t.Errorf("faults status missing plan:\n%s", out)
	}
	if !strings.Contains(out, "injected=") {
		t.Errorf("faults status missing stats:\n%s", out)
	}
	if !strings.Contains(out, "faults off") {
		t.Errorf("faults off not reported:\n%s", out)
	}
	// The query after "faults off" must succeed again: count both healthy
	// answers.
	if strings.Count(out, "head->v = 3") != 2 {
		t.Errorf("query did not recover after faults off:\n%s", out)
	}
}

// TestErrorValuesFromPrompt: "set errorvalues on" contains an injected fault
// to its element; the rest of the walk still prints.
func TestErrorValuesFromPrompt(t *testing.T) {
	out := runScript(t, listProgram,
		"run",
		"set errorvalues on",
		"faults unmapped=0.4 seed=11",
		"duel head-->next->v",
		"faults off",
		"quit",
	)
	if !strings.Contains(out, "errorvalues = true") {
		t.Errorf("set errorvalues not acknowledged:\n%s", out)
	}
	// With containment on, a faulting walk must not surface a hard
	// "Illegal memory reference" abort; faults show up inside <...> lines.
	if strings.Contains(out, "Illegal memory reference") {
		t.Errorf("errorvalues on still aborted hard:\n%s", out)
	}
}

// TestStatsCommand: the stats report shows the last evaluation's time and
// the engine's read traffic.
func TestStatsCommand(t *testing.T) {
	out := runScript(t, listProgram,
		"run",
		"duel head-->next->v",
		"duel head-->next->v",
		"stats",
		"quit",
	)
	if strings.Count(out, "head->v = 3") != 2 {
		t.Fatalf("walk did not print twice:\n%s", out)
	}
	for _, want := range []string{
		"last eval: ",
		"host reads saved: ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "host reads saved: 0 of 0") {
		t.Errorf("stats saw no engine reads after two list walks:\n%s", out)
	}
}

// TestServeCommand: the serve command fans the query out over a temporary
// concurrent evaluation server and reports throughput plus admission stats.
func TestServeCommand(t *testing.T) {
	out := runScript(t, listProgram,
		"run",
		"serve 2 8 head-->next->v",
		"quit",
	)
	for _, want := range []string{
		"served 8 queries",
		"with 2 workers",
		"admission: 8 admitted, 0 shed",
		"0 evaluations failed",
		"resilience: 0 deadline-expired",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("serve output missing %q:\n%s", want, out)
		}
	}
}

// TestServeCommandKnobs: the resilience knobs parse between the numeric
// arguments and the expression, a generous deadline sheds nothing, a bad
// knob value is a typed error instead of a mis-parsed expression, and a key
// that is no knob, such as hedge=, falls through to the expression, which
// then fails to parse.
func TestServeCommandKnobs(t *testing.T) {
	out := runScript(t, listProgram,
		"run",
		"serve 2 8 retry=off deadline=10s stream=on head-->next->v",
		"serve 1 1 retry=maybe head",
		"serve 1 1 hedge=on head",
		"quit",
	)
	for _, want := range []string{
		"served 8 queries",
		"admission: 8 admitted, 0 shed",
		"0 evaluations failed",
		"resilience: 0 deadline-expired, 0 retried,",
		"stream: 8 queries, 24 values;",
		"serve: retry=maybe: want on or off",
		`first failure: 1:10: expected end of input, found "head"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("serve knob output missing %q:\n%s", want, out)
		}
	}
}

// TestServeCommandUsage: serve without an expression is a usage error, and
// serve is refused while the target is suspended at a breakpoint.
func TestServeCommandUsage(t *testing.T) {
	out := runScript(t, listProgram,
		"serve",
		"break push",
		"run",
		"serve 2 4 head",
		"quit",
		"quit",
	)
	if !strings.Contains(out, "usage: serve") {
		t.Errorf("missing usage message:\n%s", out)
	}
	if !strings.Contains(out, "serve is unavailable while the program is running") {
		t.Errorf("missing running refusal:\n%s", out)
	}
}

// TestServeReplicasCommand: serve replicas=N stands up a replica group of N
// independent servers behind the fleet router and reports the fleet
// counters plus per-replica health; stats remembers the run.
func TestServeReplicasCommand(t *testing.T) {
	out := runScript(t, listProgram,
		"run",
		"serve 2 8 replicas=2 head-->next->v",
		"stats",
		"quit",
	)
	for _, want := range []string{
		"served 8 queries",
		"across 2 replicas of 2 workers",
		"fleet: 8 admitted,",
		"0 evaluations failed",
		"repl/0: healthy",
		"repl/1: healthy",
		"fleet (last serve replicas= run):",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("serve replicas output missing %q:\n%s", want, out)
		}
	}
}

// TestServeReplicasRefusesMutation: every fleet "replica" is a view of the
// same underlying debuggee, so a write fan-out would apply the mutation
// once per replica — mutating expressions are refused before any traffic.
func TestServeReplicasRefusesMutation(t *testing.T) {
	out := runScript(t, listProgram,
		"run",
		"serve 1 2 replicas=2 head->v = 9",
		"quit",
	)
	if !strings.Contains(out, "replicas=2 needs a read-only expression") {
		t.Errorf("mutating fleet query not refused:\n%s", out)
	}
}

// TestDuelDiffCommand: relative debugging of the target against itself.
// With no fault plan armed the two runs are clean clones and must match;
// with a total unmapped-read plan armed, the faulty side produces nothing
// and the report pins the divergence at the first value.
func TestDuelDiffCommand(t *testing.T) {
	out := runScript(t, listProgram,
		"run",
		"duel diff",
		"duel diff head-->next->v",
		"faults unmapped=1 seed=3",
		"duel diff head-->next->v",
		"stats",
		"quit",
	)
	for _, want := range []string{
		"usage: duel diff <expression>",
		"no divergence:",
		"3 identical values on clean and faulty",
		"(no fault plan armed",
		"diverged at #0: clean produced 3 extra value(s)",
		"last divergence:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("duel diff output missing %q:\n%s", want, out)
		}
	}
}
