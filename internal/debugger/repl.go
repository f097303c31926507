package debugger

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"duel"
	"duel/internal/core"
	"duel/internal/cparse"
	"duel/internal/ctype"
	"duel/internal/duel/ast"
	"duel/internal/faultdbg"
	"duel/internal/fleet"
	"duel/internal/microc"
	"duel/internal/serve"
	"duel/internal/target"
)

// Interactive sessions get finite safety limits by default — a runaway or
// wedged query prints which limit fired instead of hanging the prompt. The
// library's DefaultOptions stay unbounded (faithful); these bounds are only
// the REPL's.
const (
	interactiveMaxSteps = 1 << 20
	interactiveTimeout  = 10 * time.Second
)

// REPL is the interactive mini-debugger: load a micro-C program, run it with
// breakpoints and stepping, inspect frames, and query state with print and
// the paper's one new command, duel.
type REPL struct {
	Dbg    *Debugger
	Interp *microc.Interp
	Ses    *duel.Session
	// Inj sits between the DUEL session and the debugger; the faults
	// command arms it to exercise queries against a misbehaving target.
	Inj *faultdbg.Injector

	in     *bufio.Scanner
	out    io.Writer
	prompt string

	funcBps map[string]bool
	lineBps map[int]bool
	// Conditional breakpoints (break ... if <duel-expr>).
	funcConds  map[string]*condBreak
	lineConds  map[int]*condBreak
	condErrors map[string]bool
	// Watchpoints over DUEL expressions.
	watches  []*watchpoint
	watchSeq int
	// Assertions (DUEL invariants checked after every statement).
	asserts   []*assertion
	assertSeq int
	// Command history for the history command.
	history []string
	// srcLines holds the loaded program for the list command.
	srcLines []string
	// lastStop tracks the current location for list.
	lastStopLine int
	// stepping requests a stop at the next statement.
	stepping bool
	// running is true while the target executes (nested prompt).
	running bool
	// fleetStats keeps the last "serve replicas=" run's fleet counters and
	// fleetDiv the last relative-debugging divergence (duel diff, or the
	// fleet scrubber), for the stats command.
	fleetStats *fleet.Stats
	fleetDiv   *fleet.DiffReport
	// evalDepth counts DUEL evaluations in flight on the REPL goroutine. A
	// re-entrant evaluation — the stmt hook firing a watchpoint, assertion
	// or breakpoint condition inside a DUEL-driven target call — must not
	// retake the session's evaluation lock the outer evaluation already
	// holds, so depth > 0 routes through Session.EvalNodeNested.
	evalDepth int
}

// errQuit unwinds a run when the user quits mid-execution.
var errQuit = errors.New("debugger: quit")

// NewREPL loads src into a fresh process and returns a ready REPL.
func NewREPL(src string, in io.Reader, out io.Writer, cfg target.Config) (*REPL, error) {
	p, err := target.NewProcess(cfg)
	if err != nil {
		return nil, err
	}
	p.Stdout = out
	dbg := New(p)
	interp, err := microc.Load(p, dbg, src)
	if err != nil {
		return nil, err
	}
	inj := faultdbg.New(dbg, faultdbg.Plan{})
	opts := duel.DefaultOptions()
	opts.Eval.MaxSteps = interactiveMaxSteps
	opts.Eval.Timeout = interactiveTimeout
	ses, err := duel.NewSession(inj, opts)
	if err != nil {
		return nil, err
	}
	r := &REPL{
		Dbg:        dbg,
		Interp:     interp,
		Ses:        ses,
		Inj:        inj,
		srcLines:   strings.Split(src, "\n"),
		in:         bufio.NewScanner(in),
		out:        out,
		prompt:     "(mdb) ",
		funcBps:    map[string]bool{},
		lineBps:    map[int]bool{},
		funcConds:  map[string]*condBreak{},
		lineConds:  map[int]*condBreak{},
		condErrors: map[string]bool{},
	}
	interp.Hook = r.hook
	return r, nil
}

func (r *REPL) printf(format string, args ...any) {
	fmt.Fprintf(r.out, format, args...)
}

// Loop runs the top-level command loop until quit or EOF.
func (r *REPL) Loop() error {
	r.printf("mdb: a mini source-level debugger with DUEL. Type \"help\" for commands.\n")
	for {
		r.printf("%s", r.prompt)
		if !r.in.Scan() {
			r.printf("\n")
			return r.in.Err()
		}
		quit, err := r.Command(strings.TrimSpace(r.in.Text()))
		if err != nil {
			r.printf("%v\n", err)
		}
		if quit {
			return nil
		}
	}
}

// Command executes one debugger command; quit reports a request to exit.
func (r *REPL) Command(line string) (quit bool, err error) {
	if line == "" {
		return false, nil
	}
	// "!n" re-executes history entry n (the paper's Discussion suggests a
	// query history for common, program-specific queries).
	if strings.HasPrefix(line, "!") {
		n, err := strconv.Atoi(strings.TrimSpace(line[1:]))
		if err != nil || n < 1 || n > len(r.history) {
			return false, fmt.Errorf("no history entry %q", line[1:])
		}
		line = r.history[n-1]
		r.printf("%s\n", line)
	} else if line != "history" {
		r.history = append(r.history, line)
	}
	cmd, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	switch cmd {
	case "quit", "q", "exit":
		if r.running {
			return false, errQuit // unwound by run
		}
		return true, nil
	case "help", "h":
		if strings.TrimSpace(rest) == "serve" {
			r.helpServe()
		} else {
			r.help()
		}
		return false, nil
	case "run", "r":
		return false, r.cmdRun(strings.Fields(rest))
	case "call":
		return false, r.cmdCall(rest)
	case "break", "b":
		return false, r.cmdBreak(rest)
	case "delete", "d":
		return false, r.cmdDelete(rest)
	case "continue", "c":
		if !r.running {
			return false, fmt.Errorf("the program is not running")
		}
		r.stepping = false
		return true, nil // leaves the nested prompt; run resumes
	case "step", "s", "next", "n":
		if !r.running {
			return false, fmt.Errorf("the program is not running")
		}
		r.stepping = true
		return true, nil
	case "watch", "w":
		return false, r.cmdWatch(rest)
	case "unwatch":
		return false, r.cmdUnwatch(rest)
	case "assert":
		return false, r.cmdAssert(rest)
	case "unassert":
		return false, r.cmdUnassert(rest)
	case "history":
		for i, h := range r.history {
			r.printf("%3d  %s\n", i+1, h)
		}
		return false, nil
	case "backtrace", "bt", "where":
		r.cmdBacktrace()
		return false, nil
	case "frame", "f":
		return false, r.cmdFrame(rest)
	case "info":
		return false, r.cmdInfo(rest)
	case "list", "l":
		return false, r.cmdList(rest)
	case "print", "p":
		return false, r.cmdEval(rest, false)
	case "duel", "dl":
		if expr, ok := strings.CutPrefix(rest, "diff "); ok {
			return false, r.cmdDiff(strings.TrimSpace(expr))
		}
		if rest == "diff" {
			return false, fmt.Errorf("usage: duel diff <expression>")
		}
		switch rest {
		case "":
			// Like the original: bare "duel" prints a syntax summary.
			r.duelHelp()
			return false, nil
		case "clear":
			if r.evalDepth > 0 {
				// ClearAliases needs the evaluation lock the suspended
				// outer evaluation holds; clearing here would also yank
				// aliases out from under it.
				return false, fmt.Errorf("cannot clear aliases while an evaluation is suspended")
			}
			r.Ses.ClearAliases()
			r.printf("aliases cleared\n")
			return false, nil
		}
		return false, r.cmdEval(rest, true)
	case "set":
		return false, r.cmdSet(rest)
	case "faults":
		return false, r.cmdFaults(rest)
	case "counters":
		c := r.counters()
		r.printf("lookups=%d applies=%d symops=%d values=%d memreads=%d\n",
			c.Lookups, c.Applies, c.SymOps, c.Values, c.MemReads)
		r.printf("mem: reads=%d hostreads=%d hits=%d misses=%d invalidations=%d transients=%d retries=%d\n",
			c.TargetReads, c.HostReads, c.CacheHits, c.CacheMisses, c.Invalidations,
			c.MemTransients, c.MemRetries)
		return false, nil
	case "serve":
		return false, r.cmdServe(rest)
	case "stats":
		r.cmdStats()
		return false, nil
	}
	return false, fmt.Errorf("unknown command %q; try \"help\"", cmd)
}

func (r *REPL) help() {
	r.printf(`Commands:
  run [args]          run main() with the given argv
  call f(a, b, ...)   call a target function
  break <func|line>   set a breakpoint          delete [func|line]  clear
  continue            resume                    step                one statement
  backtrace           show frames               frame <n>           select frame
  print <expr>        evaluate an expression (DUEL syntax)
  duel <expr>         evaluate a DUEL expression, printing every value
  duel clear          drop DUEL aliases and declared variables
  duel diff <expr>    run the expression on a clean replica and one behind
                      the current fault plan; report the first diverging
                      value (relative debugging)
  watch <expr>        stop when a DUEL expression's values change
  unwatch [id]        remove watchpoint(s)
  assert <expr>       stop when a DUEL invariant produces a zero value
  unassert [id]       remove assertion(s)
  history / !n        show / re-run previous commands
  break f if <expr>   conditional breakpoint (DUEL condition)
  list [line]         show program source around a line
  info <breakpoints|watchpoints|functions|globals|locals|types>
  set backend push|machine | symbolic on|off | cycledetect on|off
      | maxsteps n | timeout dur | errorvalues on|off
      | trace on|off     (trace logs the paper-style eval walkthrough)
  faults [off | key=value ...]   arm deterministic target-fault injection
                      (rates: unmapped short transient latency allocfail
                       callfail callhang all; seed= after= limit= delay= hang=)
  serve [w [n]] <expr>  run n copies of a query through a w-worker
                      evaluation server and report concurrent throughput
                      (knobs: retry deadline stream replicas —
                       "help serve" for the full list)
  counters            evaluation statistics
  stats               last-eval time and host-read report
  quit
`)
}

// cmdStats reports the wall-clock cost of the most recent evaluation and
// how many engine reads were answered without a host round-trip (by the
// memio page cache).
func (r *REPL) cmdStats() {
	if r.evalDepth > 0 {
		// Counters takes the evaluation lock the suspended outer
		// evaluation holds.
		r.printf("stats unavailable while an evaluation is suspended\n")
		return
	}
	r.printf("last eval: %v\n", r.Ses.LastEvalTime())
	c := r.Ses.Counters()
	saved := c.TargetReads - c.HostReads
	if saved < 0 {
		saved = 0
	}
	r.printf("host reads saved: %d of %d engine reads (%d host round-trips)\n",
		saved, c.TargetReads, c.HostReads)
	if fs := r.fleetStats; fs != nil {
		r.printf("fleet (last serve replicas= run): %d failovers, %d exhausted, %d scrub runs, %d divergences\n",
			fs.Failovers, fs.NoReplica, fs.ScrubRuns, fs.Divergences)
	}
	if r.fleetDiv != nil {
		r.printf("last divergence: %s\n", r.fleetDiv)
	}
}

// cmdServe self-benchmarks the serving layer (internal/serve): it stands up
// a temporary server over this target, fans n copies of the query out over a
// session pool — each pooled session gets its own fault injector carrying
// the REPL's current fault plan, reseeded per session — and reports
// concurrent throughput and the server's admission stats.
//
// Serving knobs ride along as key=value options between the numeric
// arguments and the expression; "help serve" lists them all.
//
//	serve [workers [n]] [key=value ...] <duel-expression>
func (r *REPL) cmdServe(rest string) error {
	const usage = "usage: serve [workers [n]] [key=value ...] <expression>; try \"help serve\""
	if r.running || r.evalDepth > 0 {
		return fmt.Errorf("serve is unavailable while the program is running")
	}
	workers, n := 4, 64
	fields := strings.Fields(rest)
	var nums []int
	for len(fields) > 0 && len(nums) < 2 {
		v, err := strconv.Atoi(fields[0])
		if err != nil {
			break
		}
		if v < 1 {
			return fmt.Errorf(usage)
		}
		nums = append(nums, v)
		fields = fields[1:]
	}
	if len(nums) > 0 {
		workers = nums[0]
	}
	if len(nums) > 1 {
		n = nums[1]
	}

	// key=value resilience knobs. An unknown key falls through to the
	// expression — "x=5" is a DUEL assignment, not an option.
	var retry serve.RetryConfig
	var deadline time.Duration
	stream := false
	replicas := 1
opts:
	for len(fields) > 0 {
		eq := strings.IndexByte(fields[0], '=')
		if eq < 0 {
			break
		}
		key, val := fields[0][:eq], fields[0][eq+1:]
		switch key {
		case "retry", "stream":
			on, err := parseOnOff(val)
			if err != nil {
				return fmt.Errorf("serve: %s=%s: %w", key, val, err)
			}
			if key == "retry" {
				retry.Disabled = !on
			} else {
				stream = on
			}
		case "deadline":
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				return fmt.Errorf("serve: bad deadline %q (want a positive duration)", val)
			}
			deadline = d
		case "replicas":
			v, err := strconv.Atoi(val)
			if err != nil || v < 1 {
				return fmt.Errorf("serve: bad replicas %q (want a positive count)", val)
			}
			replicas = v
		default:
			break opts
		}
		fields = fields[1:]
	}

	expr := strings.Join(fields, " ")
	if strings.TrimSpace(expr) == "" {
		return fmt.Errorf(usage)
	}
	if replicas > 1 {
		return r.serveFleet(workers, n, replicas, retry, deadline, stream, expr)
	}

	sopts := r.Ses.Options()
	plan := r.Inj.CurrentPlan()
	srv := serve.New(serve.Config{Workers: workers, Session: sopts, Retry: retry})
	var lane atomic.Int64
	srv.RegisterFactory("repl", func() (*duel.Session, error) {
		return duel.NewSession(faultdbg.New(r.Dbg, plan.Derive(lane.Add(1))), sopts)
	})

	ctx := context.Background()
	var wg sync.WaitGroup
	var failed atomic.Int64
	var firstErr atomic.Pointer[string]
	start := time.Now()
	for g := 0; g < workers; g++ {
		from, to := g*n/workers, (g+1)*n/workers
		wg.Add(1)
		go func(count int) {
			defer wg.Done()
			for i := 0; i < count; i++ {
				var opt serve.SubmitOptions
				if deadline > 0 {
					opt.Deadline = time.Now().Add(deadline)
				}
				var err error
				if stream {
					err = srv.SubmitStream(ctx, "repl", expr, opt,
						func(serve.StreamValue) error { return nil })
				} else {
					_, err = srv.EvalWith(ctx, "repl", expr, opt)
				}
				if err != nil {
					failed.Add(1)
					s := err.Error()
					firstErr.CompareAndSwap(nil, &s)
				}
			}
		}(to - from)
	}
	wg.Wait()
	elapsed := time.Since(start)

	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	st := srv.Stats()
	qps := float64(st.Completed) / elapsed.Seconds()
	r.printf("served %d queries in %v with %d workers (%.0f queries/sec)\n",
		st.Completed, elapsed.Round(time.Microsecond), workers, qps)
	r.printf("admission: %d admitted, %d shed, %d refused by breaker, %d trips; %d evaluations failed\n",
		st.Admitted, st.Shed, st.FastFails, st.Trips, failed.Load())
	r.printf("resilience: %d deadline-expired, %d retried, %d quarantined\n",
		st.DeadlineExpired, st.Retried, st.Quarantined)
	meanQ, meanE := time.Duration(0), time.Duration(0)
	if st.Completed > 0 {
		meanQ = time.Duration(st.QueueNanos / st.Completed)
		meanE = time.Duration(st.EvalNanos / st.Completed)
	}
	r.printf("stream: %d queries, %d values; %d target-lock takes; mean queue %v, eval %v\n",
		st.StreamQueries, st.StreamValues, st.TargetLocks,
		meanQ.Round(time.Microsecond), meanE.Round(time.Microsecond))
	if e := firstErr.Load(); e != nil {
		r.printf("first failure: %s\n", *e)
	}
	return nil
}

// serveFleet is cmdServe's replicas= mode: the same traffic, routed through
// a fleet.Router fronting `replicas` serve nodes. Each node wraps this one
// target behind its own per-replica fault lane (DeriveReplica reseeds the
// REPL's current plan per node), so an armed fault plan makes the replicas
// genuinely unequal and the router's health-ranked routing, failover and
// divergence scrubbing all have something to do. Because every "replica" is
// a view of the same underlying debuggee, only read-only expressions are
// allowed — a write fan-out would apply the mutation once per replica.
func (r *REPL) serveFleet(workers, n, replicas int, retry serve.RetryConfig, deadline time.Duration, stream bool, expr string) error {
	sopts := r.Ses.Options()
	plan := r.Inj.CurrentPlan()
	var lane atomic.Int64
	servers := make([]*serve.Server, replicas)
	reps := make([]fleet.Replica, replicas)
	for i := 0; i < replicas; i++ {
		rp := plan.DeriveReplica("repl", i)
		srv := serve.New(serve.Config{Workers: workers, Session: sopts, Retry: retry})
		srv.RegisterFactory("repl", func() (*duel.Session, error) {
			return duel.NewSession(faultdbg.New(r.Dbg, rp.Derive(lane.Add(1))), sopts)
		})
		servers[i] = srv
		reps[i] = fleet.Replica{Name: fmt.Sprintf("repl/%d", i), Server: srv, Target: "repl"}
	}
	shutdown := func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		for _, s := range servers {
			_ = s.Shutdown(sctx)
		}
	}
	if q, err := servers[0].Prepare("repl", expr); err != nil {
		shutdown()
		return fmt.Errorf("serve: %w", err)
	} else if q.Mutating {
		shutdown()
		return fmt.Errorf("serve: replicas=%d needs a read-only expression (the replicas share this one target; a write fan-out would apply it %d times)", replicas, replicas)
	}

	router := fleet.New(fleet.Config{Scrub: fleet.ScrubConfig{Enabled: true, Interval: 5 * time.Millisecond}})
	if err := router.AddGroup("repl", reps, expr); err != nil {
		router.Close()
		shutdown()
		return err
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	var failed atomic.Int64
	var firstErr atomic.Pointer[string]
	start := time.Now()
	for g := 0; g < workers; g++ {
		from, to := g*n/workers, (g+1)*n/workers
		wg.Add(1)
		go func(count int) {
			defer wg.Done()
			for i := 0; i < count; i++ {
				var opt serve.SubmitOptions
				if deadline > 0 {
					opt.Deadline = time.Now().Add(deadline)
				}
				var err error
				if stream {
					err = router.SubmitStream(ctx, "repl", expr, opt,
						func(serve.StreamValue) error { return nil })
				} else {
					_, err = router.EvalWith(ctx, "repl", expr, opt)
				}
				if err != nil {
					failed.Add(1)
					s := err.Error()
					firstErr.CompareAndSwap(nil, &s)
				}
			}
		}(to - from)
	}
	wg.Wait()
	elapsed := time.Since(start)

	statuses, _ := router.Replicas("repl")
	router.Close()
	shutdown()

	fst := router.Stats()
	r.fleetStats = &fst
	if d := router.LastDivergence(); d != nil {
		r.fleetDiv = d
	}
	qps := float64(fst.Completed) / elapsed.Seconds()
	r.printf("served %d queries in %v across %d replicas of %d workers (%.0f queries/sec)\n",
		fst.Completed, elapsed.Round(time.Microsecond), replicas, workers, qps)
	r.printf("fleet: %d admitted, %d failovers, %d exhausted, %d scrub runs, %d divergences; %d evaluations failed\n",
		fst.Admitted, fst.Failovers, fst.NoReplica, fst.ScrubRuns, fst.Divergences, failed.Load())
	for _, s := range statuses {
		r.printf("  %s: %s (score %.2f), %d divergences attributed\n",
			s.Name, s.Health, s.Score, s.Divergences)
	}
	if d := router.LastDivergence(); d != nil {
		r.printf("last divergence: %s\n", d)
	}
	if e := firstErr.Load(); e != nil {
		r.printf("first failure: %s\n", *e)
	}
	return nil
}

// cmdDiff is "duel diff <expr>": relative debugging of this target against
// itself, DUCT-style. The expression runs once on a clean replica and once
// on a replica behind the REPL's current fault plan, and the report names
// the first value where the two runs' streams diverge — with no plan armed
// it is a determinism check (two clean runs must match exactly).
func (r *REPL) cmdDiff(expr string) error {
	if expr == "" {
		return fmt.Errorf("usage: duel diff <expression>")
	}
	if r.running || r.evalDepth > 0 {
		return fmt.Errorf("duel diff is unavailable while the program is running")
	}
	sopts := r.Ses.Options()
	plan := r.Inj.CurrentPlan()
	srv := serve.New(serve.Config{Workers: 2, Session: sopts})
	srv.RegisterFactory("clean", func() (*duel.Session, error) {
		return duel.NewSession(r.Dbg, sopts)
	})
	var lane atomic.Int64
	srv.RegisterFactory("faulty", func() (*duel.Session, error) {
		return duel.NewSession(faultdbg.New(r.Dbg, plan.Derive(lane.Add(1))), sopts)
	})
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx)
	}()
	router := fleet.New(fleet.Config{})
	defer router.Close()
	if err := router.AddGroup("diff", []fleet.Replica{
		{Name: "clean", Server: srv, Target: "clean"},
		{Name: "faulty", Server: srv, Target: "faulty"},
	}); err != nil {
		return err
	}
	rep, err := router.Diff(context.Background(), "diff", expr, 0, 1)
	if err != nil {
		return err
	}
	if rep.Diverged {
		r.fleetDiv = rep
	}
	r.printf("%s\n", rep)
	if len(plan.Rates) == 0 && len(plan.Script) == 0 {
		r.printf("(no fault plan armed — this compared two clean runs; arm one with \"faults\")\n")
	}
	return nil
}

// helpServe documents every serve knob — the one-line summary in help
// points here.
func (r *REPL) helpServe() {
	r.printf(`serve [workers [n]] [key=value ...] <duel-expression>

Runs n copies (default 64) of the expression through a temporary
workers-wide (default 4) evaluation server over this target and reports
throughput plus the server's admission, resilience and streaming
counters. Pooled sessions inherit the current fault plan.

Knobs (between the numbers and the expression):
  retry=on|off     serve-layer retry of transient infra failures under the
                   per-target token-bucket budget (on)
  deadline=dur     per-query end-to-end deadline, queue time included
                   (e.g. deadline=50ms; expired-in-queue queries are shed)
  stream=on|off    submit through SubmitStream, delivering each value as it
                   is produced instead of collecting transcripts (off)
  replicas=N       fleet mode: route the same traffic through a replica
                   group of N serve nodes over this target, each node behind
                   its own per-replica fault lane. Reads fail over between
                   replicas under the router's health ranking, a background
                   scrubber cross-checks replica value streams for silent
                   divergence, and the report adds fleet counters
                   (failovers, exhausted routes, scrub runs, divergences)
                   plus per-replica health. Read-only expressions only (1)
`)
}

// parseOnOff parses the REPL's boolean option syntax.
func parseOnOff(val string) (bool, error) {
	switch val {
	case "on":
		return true, nil
	case "off":
		return false, nil
	}
	return false, fmt.Errorf("want on or off")
}

// duelHelp prints the operator summary the bare "duel" command shows,
// like the original implementation's self-help.
func (r *REPL) duelHelp() {
	r.printf(`DUEL - a very high-level debugging language (Golan & Hanson, USENIX '93)
Examples:
  duel x[..100] >? 0                      positive elements of x, with indices
  duel x[1..4,8,12..50] >? 5 <? 10        search several index ranges
  duel (hash[..1024] !=? 0)->scope >? 5   deep scopes in a hash table
  duel hash[1,9]->(scope,name)            several fields at once
  duel head-->next->value                 walk a linked list
  duel root-->(left,right)->key           binary tree in preorder
  duel L-->next->(value ==? next-->next->value)   duplicated value fields
  duel #/(head-->next)                    count the nodes
  duel argv[0..]@0                        the strings in argv
  duel x := e => ...                      alias x to each value of e
  duel int i; for (i = 0; i < n; i++) ... C code works too
Operators: a..b  ..n  n..  e1,e2  >? <? ==? !=? >=? <=?  .  ->  _  -->  -->>
           [[i]]  e#i  e@stop  #/ +/ &&/ ||/  :=  =>  {v}  ;  frame(i)
See docs/LANGUAGE.md for the full reference.
`)
}

// firstStmtLine finds the first executable (non-block) statement of s.
func firstStmtLine(s cparse.Stmt) int {
	for {
		b, ok := s.(*cparse.Block)
		if !ok || len(b.Stmts) == 0 {
			return s.StmtLine()
		}
		s = b.Stmts[0]
	}
}

// hook implements the statement hook: breakpoints and stepping. Blocks are
// containers, not executable statements, so they never trigger a stop.
func (r *REPL) hook(fn *cparse.FuncDef, line int, isBlock bool) error {
	if isBlock {
		return nil
	}
	why := ""
	stop := r.stepping
	switch {
	case stop:
	case r.lineBps[line]:
		if c := r.lineConds[line]; c == nil || r.condTrue(c) {
			stop = true
		}
	case r.funcBps[fn.Name] && fn.Body != nil && line == firstStmtLine(fn.Body):
		if c := r.funcConds[fn.Name]; c == nil || r.condTrue(c) {
			stop = true
		}
	}
	if !stop && len(r.asserts) > 0 {
		if a := r.checkAsserts(); a != nil {
			stop = true
			why = fmt.Sprintf(" (assertion %d)", a.id)
		}
	}
	if !stop && len(r.watches) > 0 {
		if w := r.checkWatches(); w != nil {
			stop = true
			why = fmt.Sprintf(" (watchpoint %d)", w.id)
		}
	}
	if !stop {
		return nil
	}
	r.stepping = false
	r.lastStopLine = line
	r.printf("stopped in %s at line %d%s\n", fn.Name, line, why)
	// Nested prompt while the target is suspended.
	for {
		r.printf("%s", r.prompt)
		if !r.in.Scan() {
			return errQuit
		}
		resume, err := r.Command(strings.TrimSpace(r.in.Text()))
		if err != nil {
			if errors.Is(err, errQuit) {
				return err
			}
			r.printf("%v\n", err)
			continue
		}
		if resume {
			r.Dbg.SelectedFrame = 0
			return nil
		}
	}
}

func (r *REPL) cmdRun(argv []string) error {
	r.running = true
	defer func() { r.running = false; r.Dbg.SelectedFrame = 0 }()
	code, err := r.Interp.RunMain(append([]string{"a.out"}, argv...))
	if err != nil {
		if errors.Is(err, errQuit) {
			r.printf("run aborted\n")
			return nil
		}
		return err
	}
	r.printf("program exited with code %d\n", code)
	return nil
}

// cmdCall calls a target function with constant int arguments.
func (r *REPL) cmdCall(expr string) error {
	r.running = true
	defer func() { r.running = false; r.Dbg.SelectedFrame = 0 }()
	return r.cmdEval(expr, true)
}

func (r *REPL) cmdBreak(arg string) error {
	if arg == "" {
		return fmt.Errorf("usage: break <function|line> [if <duel-expr>]")
	}
	// "break <loc> if <duel-expr>" sets a conditional breakpoint.
	loc, condSrc, hasCond := strings.Cut(arg, " if ")
	loc = strings.TrimSpace(loc)
	var cond *condBreak
	if hasCond {
		var err error
		if cond, err = r.compileCond(strings.TrimSpace(condSrc)); err != nil {
			return err
		}
	}
	suffix := ""
	if cond != nil {
		suffix = " if " + cond.src
	}
	if n, err := strconv.Atoi(loc); err == nil {
		r.lineBps[n] = true
		if cond != nil {
			r.lineConds[n] = cond
		}
		r.printf("breakpoint at line %d%s\n", n, suffix)
		return nil
	}
	if _, ok := r.Dbg.P.Function(loc); !ok {
		return fmt.Errorf("no function %q", loc)
	}
	r.funcBps[loc] = true
	if cond != nil {
		r.funcConds[loc] = cond
	}
	r.printf("breakpoint at %s%s\n", loc, suffix)
	return nil
}

func (r *REPL) cmdDelete(arg string) error {
	if arg == "" {
		r.funcBps = map[string]bool{}
		r.lineBps = map[int]bool{}
		r.printf("all breakpoints deleted\n")
		return nil
	}
	if n, err := strconv.Atoi(arg); err == nil {
		delete(r.lineBps, n)
		delete(r.lineConds, n)
		return nil
	}
	delete(r.funcBps, arg)
	delete(r.funcConds, arg)
	return nil
}

func (r *REPL) cmdBacktrace() {
	p := r.Dbg.P
	if p.NumFrames() == 0 {
		r.printf("no stack\n")
		return
	}
	for i := 0; i < p.NumFrames(); i++ {
		fr, _ := p.FrameAt(i)
		mark := " "
		if i == r.Dbg.SelectedFrame {
			mark = "*"
		}
		r.printf("%s#%d  %s at line %d\n", mark, i, fr.Func.Name, fr.Line)
	}
}

func (r *REPL) cmdFrame(arg string) error {
	n, err := strconv.Atoi(arg)
	if err != nil {
		return fmt.Errorf("usage: frame <n>")
	}
	if _, ok := r.Dbg.P.FrameAt(n); !ok {
		return fmt.Errorf("no frame %d", n)
	}
	r.Dbg.SelectedFrame = n
	fr, _ := r.Dbg.P.FrameAt(n)
	r.printf("#%d  %s at line %d\n", n, fr.Func.Name, fr.Line)
	return nil
}

func (r *REPL) cmdInfo(what string) error {
	p := r.Dbg.P
	switch what {
	case "breakpoints", "break", "b":
		if len(r.funcBps) == 0 && len(r.lineBps) == 0 {
			r.printf("no breakpoints\n")
			return nil
		}
		var names []string
		for n := range r.funcBps {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			r.printf("function %s\n", n)
		}
		var lines []int
		for l := range r.lineBps {
			lines = append(lines, l)
		}
		sort.Ints(lines)
		for _, l := range lines {
			r.printf("line %d\n", l)
		}
	case "functions", "func":
		for _, n := range p.Functions() {
			f, _ := p.Function(n)
			r.printf("%s\n", ctype.FormatDecl(f.Type, n))
		}
	case "globals", "variables", "var":
		for _, n := range p.Globals() {
			v, _ := p.Global(n)
			r.printf("%s  (at 0x%x)\n", ctype.FormatDecl(v.Type, n), v.Addr)
		}
	case "locals":
		fr, ok := p.FrameAt(r.Dbg.SelectedFrame)
		if !ok {
			return fmt.Errorf("no stack")
		}
		for _, v := range fr.Locals {
			r.printf("%s  (at 0x%x)\n", ctype.FormatDecl(v.Type, v.Name), v.Addr)
		}
	case "watchpoints", "watch":
		if len(r.watches) == 0 {
			r.printf("no watchpoints\n")
			return nil
		}
		for _, wp := range r.watches {
			r.printf("%d: %s = %s\n", wp.id, wp.src, joinOrNone(wp.last))
		}
	case "types":
		p := r.Dbg.P
		for _, tag := range p.StructTags(false) {
			if s, ok := p.Struct(tag, false); ok && !s.Incomplete {
				r.printf("struct %s  (%d bytes, %d members)\n", tag, s.Size(), len(s.Fields))
			} else {
				r.printf("struct %s  (incomplete)\n", tag)
			}
		}
		for _, tag := range p.StructTags(true) {
			r.printf("union %s\n", tag)
		}
		for _, tag := range p.EnumTags() {
			r.printf("enum %s\n", tag)
		}
		for _, n := range p.TypedefNames() {
			if td, ok := p.Typedef(n); ok {
				r.printf("typedef %s\n", ctype.FormatDecl(td.Under, n))
			}
		}
	default:
		return fmt.Errorf("usage: info <breakpoints|functions|globals|locals>")
	}
	return nil
}

// evalNode evaluates a parsed DUEL expression, tracking re-entrancy: the
// top-level call takes the session's evaluation lock, while a nested one
// (issued from a prompt or hook inside a suspended evaluation on this same
// goroutine) routes through EvalNodeNested to avoid self-deadlock.
func (r *REPL) evalNode(n *ast.Node, f func(duel.Result) error) error {
	if r.evalDepth > 0 {
		return r.Ses.EvalNodeNested(n, f)
	}
	r.evalDepth++
	defer func() { r.evalDepth-- }()
	return r.Ses.EvalNode(n, f)
}

// evalSrc is evalNode for source text, parsing first.
func (r *REPL) evalSrc(src string, f func(duel.Result) error) error {
	if r.evalDepth > 0 {
		n, err := r.Ses.Parse(src)
		if err != nil {
			return err
		}
		return r.Ses.EvalNodeNested(n, f)
	}
	r.evalDepth++
	defer func() { r.evalDepth-- }()
	return r.Ses.EvalFunc(src, f)
}

// counters snapshots the session counters without re-taking the evaluation
// lock when issued from a nested prompt inside a suspended evaluation.
func (r *REPL) counters() core.Counters {
	if r.evalDepth > 0 {
		return r.Ses.Env.Counters()
	}
	return r.Ses.Counters()
}

// cmdEval evaluates an expression. print and duel share the evaluator; duel
// is the paper's command and drives all values, print limits the output like
// gdb's print (but still shows every value of a generator).
func (r *REPL) cmdEval(src string, isDuel bool) error {
	if strings.TrimSpace(src) == "" {
		return fmt.Errorf("usage: %s <expression>", map[bool]string{true: "duel", false: "print"}[isDuel])
	}
	count := 0
	err := r.evalSrc(src, func(res duel.Result) error {
		count++
		r.printf("%s\n", res.Line())
		return nil
	})
	if err != nil {
		// Say which safety limit fired, so the user knows what to raise.
		var sl *core.StepLimitError
		if errors.As(err, &sl) {
			r.printf("%v\n(step limit MaxSteps = %d fired; raise it with \"set maxsteps <n>\")\n", err, sl.Limit)
			return nil
		}
		var tl *core.TimeoutError
		if errors.As(err, &tl) {
			r.printf("%v\n(time limit Timeout = %v fired; raise it with \"set timeout <duration>\")\n", err, tl.Limit)
			return nil
		}
		return err
	}
	// A trailing ';' means "side effects only" — stay silent, like the
	// paper's hash[0..1023]->scope = 0 ; example.
	if count == 0 && isDuel && !strings.HasSuffix(strings.TrimSpace(src), ";") {
		r.printf("(no values)\n")
	}
	return nil
}

func (r *REPL) cmdSet(rest string) error {
	key, val, _ := strings.Cut(rest, " ")
	val = strings.TrimSpace(val)
	switch key {
	case "backend":
		opts := duel.DefaultOptions()
		opts.Backend = val
		opts.Eval = r.Ses.Env.Opts
		ses, err := duel.NewSession(r.Inj, opts)
		if err != nil {
			return err
		}
		r.Ses = ses
		r.printf("backend = %s\n", val)
	case "symbolic":
		on := val == "on"
		r.Ses.Env.Opts.Symbolic = on
		r.Ses.Printer.Symbolic = on
		r.printf("symbolic = %v\n", on)
	case "cycledetect":
		r.Ses.Env.Opts.CycleDetect = val == "on"
		r.printf("cycledetect = %v\n", val == "on")
	case "maxsteps":
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return fmt.Errorf("usage: set maxsteps <n>  (0 = unbounded)")
		}
		r.Ses.Env.Opts.MaxSteps = n
		r.printf("maxsteps = %d\n", n)
	case "timeout":
		d, err := time.ParseDuration(val)
		if err != nil || d < 0 {
			return fmt.Errorf("usage: set timeout <duration>  (e.g. 5s; 0 = unbounded)")
		}
		r.Ses.Env.Opts.Timeout = d
		r.printf("timeout = %v\n", d)
	case "errorvalues":
		r.Ses.Env.Opts.ErrorValues = val == "on"
		r.printf("errorvalues = %v\n", val == "on")
	case "trace":
		// Tracing shows the paper's per-node evaluation walkthrough;
		// it is implemented by the machine (state/NOVALUE) backend.
		if val == "on" {
			if r.Ses.Backend.Name() != "machine" {
				if err := r.cmdSet("backend machine"); err != nil {
					return err
				}
			}
			r.Ses.Env.Opts.Trace = r.out
		} else {
			r.Ses.Env.Opts.Trace = nil
		}
		r.printf("trace = %v\n", val == "on")
	default:
		return fmt.Errorf("usage: set <backend|symbolic|cycledetect> <value>")
	}
	return nil
}

// cmdFaults arms, disarms and reports the session's fault injector.
//
//	faults                          show the current plan and statistics
//	faults off                      stop injecting
//	faults seed=7 unmapped=0.05 ... arm a new plan (resets the schedule)
//
// Rate keys (probability per operation): unmapped, short, transient,
// latency, allocfail, callfail, callhang; all=<p> sets every kind at once.
// Other keys: seed=<n>, after=<n> (skip first n ops), limit=<n> (max
// injections), delay=<dur> (latency per fault), hang=<dur> (hang bound).
func (r *REPL) cmdFaults(rest string) error {
	switch strings.TrimSpace(rest) {
	case "":
		if r.Inj.Armed() {
			r.printf("faults armed: %s\n", describePlan(r.Inj.CurrentPlan()))
		} else {
			r.printf("faults off\n")
		}
		r.printf("stats: %s\n", r.Inj.Stats())
		return nil
	case "off":
		r.Inj.Disarm()
		r.printf("faults off\n")
		return nil
	}
	plan := faultdbg.Plan{Rates: map[faultdbg.Kind]float64{}}
	kinds := map[string]faultdbg.Kind{}
	for _, k := range faultdbg.Kinds() {
		kinds[k.String()] = k
	}
	for _, tok := range strings.Fields(rest) {
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			return fmt.Errorf("faults: %q is not key=value (try \"help\")", tok)
		}
		if k, isKind := kinds[key]; isKind {
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return fmt.Errorf("faults: rate %s=%q must be in [0,1]", key, val)
			}
			plan.Rates[k] = p
			continue
		}
		switch key {
		case "all":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return fmt.Errorf("faults: rate all=%q must be in [0,1]", val)
			}
			for _, k := range faultdbg.Kinds() {
				plan.Rates[k] = p
			}
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return fmt.Errorf("faults: bad seed %q", val)
			}
			plan.Seed = n
		case "after":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 0 {
				return fmt.Errorf("faults: bad after %q", val)
			}
			plan.After = n
		case "limit":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 0 {
				return fmt.Errorf("faults: bad limit %q", val)
			}
			plan.Limit = n
		case "delay":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return fmt.Errorf("faults: bad delay %q", val)
			}
			plan.Latency = d
		case "hang":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return fmt.Errorf("faults: bad hang %q", val)
			}
			plan.Hang = d
		default:
			return fmt.Errorf("faults: unknown key %q", key)
		}
	}
	r.Inj.Arm(plan)
	r.printf("faults armed: %s\n", describePlan(r.Inj.CurrentPlan()))
	return nil
}

func describePlan(p faultdbg.Plan) string {
	var parts []string
	for _, k := range faultdbg.Kinds() {
		if rate := p.Rates[k]; rate > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, rate))
		}
	}
	parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	if p.After > 0 {
		parts = append(parts, fmt.Sprintf("after=%d", p.After))
	}
	if p.Limit > 0 {
		parts = append(parts, fmt.Sprintf("limit=%d", p.Limit))
	}
	parts = append(parts, fmt.Sprintf("delay=%v hang=%v", p.Latency, p.Hang))
	return strings.Join(parts, " ")
}

// cmdList shows source around the given line (default: the current stop).
func (r *REPL) cmdList(arg string) error {
	center := r.lastStopLine
	if arg != "" {
		n, err := strconv.Atoi(arg)
		if err != nil {
			return fmt.Errorf("usage: list [line]")
		}
		center = n
	}
	if center == 0 {
		center = 1
	}
	lo := center - 4
	if lo < 1 {
		lo = 1
	}
	hi := lo + 9
	if hi > len(r.srcLines) {
		hi = len(r.srcLines)
	}
	for i := lo; i <= hi; i++ {
		mark := "   "
		if i == r.lastStopLine && r.lastStopLine != 0 {
			mark = "=> "
		}
		r.printf("%s%4d  %s\n", mark, i, r.srcLines[i-1])
	}
	return nil
}
