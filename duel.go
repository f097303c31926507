// Package duel is a Go reproduction of DUEL, the very high-level debugging
// language of Golan & Hanson (Winter USENIX 1993). DUEL extends C
// expressions with generators — expressions producing zero or more values —
// so that state-exploration queries become one-liners:
//
//	x[..100] >? 0                     // positive elements of x, with indices
//	hash[..1024]-->next->scope = 0 ;  // clear every symbol's scope field
//	head-->next->value                // walk a linked list
//
// A Session attaches the DUEL engine to any debugger implementing the narrow
// interface of package internal/dbgif (the paper's duel_get_target_bytes &
// co.). This repository provides a complete substrate: a simulated target
// process (internal/target), a micro-C interpreter to populate and run it
// (internal/microc), and a mini source-level debugger (internal/debugger).
//
// Quick start:
//
//	p := target.MustNewProcess(target.DefaultConfig)
//	// ... define globals, or load a micro-C program ...
//	s := duel.MustNewSession(debugger.New(p))
//	s.Exec(os.Stdout, "(1..3)+(5,9)")
package duel

import (
	"context"
	"errors"
	"fmt"
	"io"
	"iter"
	"sync"
	"sync/atomic"
	"time"

	"duel/internal/core"
	"duel/internal/dbgif"
	"duel/internal/duel/ast"
	"duel/internal/duel/display"
	"duel/internal/duel/parser"
	"duel/internal/duel/value"
	"duel/internal/memio"
)

// Options configure a Session.
type Options struct {
	// Backend selects the evaluator implementation: "push" (the default
	// and production evaluator) or "machine" (the paper's explicit
	// per-node state machines, kept as the reference the differential
	// tests compare against). Any other name is rejected by NewSession.
	Backend string
	// Eval controls evaluation (symbolic values, cycle detection,
	// safety limits). Zero value means core.DefaultOptions.
	Eval core.Options
	// ShowSymbolic controls "symbolic = value" output lines.
	ShowSymbolic bool
	// MaxOutput bounds the number of result lines Exec prints
	// (0 = unlimited).
	MaxOutput int
	// Debugger optionally carries the host debugger inside the options,
	// for front ends that configure a session in one value. NewSession's
	// positional debugger wins when both are given; an externally built
	// substrate (a core dump via internal/coredbg, say) can be attached by
	// passing nil positionally and setting this field.
	Debugger dbgif.Debugger
}

// DefaultOptions returns the standard session options.
func DefaultOptions() Options {
	return Options{Backend: "push", Eval: core.DefaultOptions(), ShowSymbolic: true}
}

// Result is one value produced by a DUEL expression.
type Result struct {
	// Sym is the symbolic (derivation) expression, e.g. "x[3]".
	Sym string
	// Text is the formatted value, e.g. "7".
	Text string
	// Value is the underlying engine value.
	Value value.Value
}

// Line renders the result as DUEL prints it: "sym = value", or just the
// value when the symbolic form adds nothing.
func (r Result) Line() string {
	if r.Sym == "" || r.Sym == r.Text {
		return r.Text
	}
	return r.Sym + " = " + r.Text
}

// Session is one DUEL session attached to a debugger.
//
// A Session is safe for concurrent use: evaluations (and alias mutations)
// from different goroutines serialize on an internal evaluation lock, while
// parsing and LastEvalTime take no lock, so they proceed while a query is in
// flight. One Session still evaluates one expression at a time — the
// evaluator's name-resolution stack, step budget and declaration storage
// are per-evaluation state — so a serving layer that wants parallelism runs
// a pool of Sessions (see internal/serve).
type Session struct {
	D       dbgif.Debugger
	Env     *core.Env
	Backend core.Backend
	Printer *display.Printer
	opts    Options

	// evalMu serializes evaluations and alias-table mutations. It is held
	// for the whole of one EvalNode, so Counters (which also takes it)
	// observes quiesced state.
	evalMu   sync.Mutex
	lastEval atomic.Int64 // nanoseconds of the most recent EvalNode
}

// normalizeEval fills in the unset fields of caller-supplied evaluation
// options. A wholly zero Eval means "use the defaults"; a partially set one
// keeps every explicit field (Symbolic: false stays false) and only has its
// zero-valued safety limits raised to the defaults, so a runaway "e.."
// cannot hang a session that merely forgot to set a bound.
func normalizeEval(o core.Options) core.Options {
	d := core.DefaultOptions()
	if o == (core.Options{}) {
		return d
	}
	if o.MaxOpenRange == 0 {
		o.MaxOpenRange = d.MaxOpenRange
	}
	if o.MaxExpand == 0 {
		o.MaxExpand = d.MaxExpand
	}
	if o.MaxCStringLen == 0 {
		o.MaxCStringLen = d.MaxCStringLen
	}
	return o
}

// NormalizeOptions fills in the unset fields of a partially specified
// Options. A wholly zero Options means "use the defaults"; a partial one
// keeps every field the caller set (ShowSymbolic: false stays false) and
// only defaults the empty Backend and the zero-valued Eval safety limits.
// NewSession applies it to caller-supplied options; layered callers that
// pre-normalize a session template (e.g. internal/serve's pooled-session
// config) use it directly so they default exactly the way a session would,
// instead of overwriting fields the caller set.
func NormalizeOptions(o Options) Options {
	if o == (Options{}) {
		return DefaultOptions()
	}
	if o.Backend == "" {
		o.Backend = "push"
	}
	o.Eval = normalizeEval(o.Eval)
	return o
}

// NewSession attaches DUEL to the given debugger.
func NewSession(d dbgif.Debugger, opts ...Options) (*Session, error) {
	o := DefaultOptions()
	if len(opts) > 0 {
		o = NormalizeOptions(opts[0])
	}
	if d == nil {
		d = o.Debugger
	}
	if d == nil {
		return nil, errors.New("duel: no debugger (pass one to NewSession or set Options.Debugger)")
	}
	b, err := core.GetBackend(o.Backend)
	if err != nil {
		return nil, err
	}
	env := core.NewEnv(d, o.Eval)
	pr := display.New(env.Ctx)
	pr.Symbolic = o.ShowSymbolic
	return &Session{D: d, Env: env, Backend: b, Printer: pr, opts: o}, nil
}

// Options returns the options the session was created with (after
// defaulting), so another session can be built to match.
func (s *Session) Options() Options { return s.opts }

// MustNewSession is NewSession for tests and examples.
func MustNewSession(d dbgif.Debugger, opts ...Options) *Session {
	s, err := NewSession(d, opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// Parse compiles a DUEL command input to its AST without evaluating it.
func (s *Session) Parse(src string) (*ast.Node, error) {
	return parser.Parse(src, s.D)
}

// Eval evaluates a DUEL input and collects all produced values.
func (s *Session) Eval(src string) ([]Result, error) {
	return s.EvalContext(context.Background(), src)
}

// EvalContext is Eval with caller-controlled cancellation: canceling ctx
// aborts the evaluation (interrupting the memory chain like the Timeout
// watchdog) with a *core.CanceledError.
func (s *Session) EvalContext(ctx context.Context, src string) ([]Result, error) {
	var out []Result
	err := s.EvalFuncContext(ctx, src, func(r Result) error {
		out = append(out, r)
		return nil
	})
	return out, err
}

// EvalFunc evaluates a DUEL input, streaming each produced value — the
// paper's top-level driver ("the duel command drives its expression argument
// and prints all of its values").
func (s *Session) EvalFunc(src string, f func(Result) error) error {
	return s.EvalFuncContext(context.Background(), src, f)
}

// EvalFuncContext is EvalFunc with caller-controlled cancellation.
func (s *Session) EvalFuncContext(ctx context.Context, src string, f func(Result) error) error {
	n, err := s.Parse(src)
	if err != nil {
		return err
	}
	return s.EvalNodeContext(ctx, n, f)
}

// EvalNode drives an already-parsed expression through the hardened
// core.Eval boundary: Options.Eval.Timeout is enforced by a watchdog that
// interrupts the session's memory accessor, and internal panics surface as
// *core.PanicError values instead of killing the process.
func (s *Session) EvalNode(n *ast.Node, f func(Result) error) error {
	return s.EvalNodeContext(context.Background(), n, f)
}

// EvalNodeContext is EvalNode with caller-controlled cancellation. It
// acquires the session's evaluation lock: concurrent callers serialize, and
// each evaluation observes the alias table and caches quiesced. A context
// that is already dead fails fast — both before queueing on the lock and
// again after acquiring it, so a query whose deadline lapsed while it waited
// behind another evaluation never starts driving the memory chain. Either
// way the abort surfaces as a *core.CanceledError carrying context.Cause.
func (s *Session) EvalNodeContext(ctx context.Context, n *ast.Node, f func(Result) error) error {
	if ctx != nil {
		if cause := context.Cause(ctx); cause != nil {
			return &core.CanceledError{Cause: cause}
		}
	}
	s.evalMu.Lock()
	defer s.evalMu.Unlock()
	if ctx != nil {
		if cause := context.Cause(ctx); cause != nil {
			return &core.CanceledError{Cause: cause}
		}
	}
	return s.evalNodeLocked(ctx, n, f)
}

// EvalNodeNested evaluates WITHOUT acquiring the session's evaluation lock.
// It exists for exactly one caller shape: a debugger re-entering evaluation
// on the same goroutine from within an evaluation it already owns — the
// mini-debugger's watchpoints and breakpoint conditions, evaluated while a
// DUEL-driven target call is suspended at a breakpoint. Calling it from any
// goroutine that does not currently own an EvalNode on this session is a
// data race; everything else must use EvalNode/EvalNodeContext.
func (s *Session) EvalNodeNested(n *ast.Node, f func(Result) error) error {
	return s.evalNodeLocked(context.Background(), n, f)
}

func (s *Session) evalNodeLocked(ctx context.Context, n *ast.Node, f func(Result) error) error {
	start := time.Now()
	defer func() { s.lastEval.Store(int64(time.Since(start))) }()
	return core.EvalContext(ctx, s.Env, s.Backend, n, func(v value.Value) error {
		text, err := s.Printer.Format(v)
		if err != nil {
			var me *value.MemError
			if !s.Env.Opts.ErrorValues || !errors.As(err, &me) {
				return err
			}
			// Contain a display-time read fault to this one line, like
			// any other per-element fault.
			text = "<" + value.Poison(v.Sym, err).ErrText() + ">"
		}
		sym := ""
		if s.opts.ShowSymbolic {
			sym = s.Env.Ctx.Syms.String(v.Sym)
		}
		return f(Result{Sym: sym, Text: text, Value: v})
	})
}

// errTruncated is the internal sentinel that stops evaluation when Exec hits
// MaxOutput. Truncation is not a failure: the marker line is printed and the
// caller sees a nil error.
var errTruncated = errors.New("duel: output truncated")

// Exec evaluates a DUEL input and writes one line per value to w, exactly
// like the gdb "duel" command. Hitting Options.MaxOutput prints a truncation
// marker and returns nil.
func (s *Session) Exec(w io.Writer, src string) error {
	return s.ExecContext(context.Background(), w, src)
}

// ExecContext is Exec with caller-controlled cancellation.
func (s *Session) ExecContext(ctx context.Context, w io.Writer, src string) error {
	count := 0
	err := s.EvalFuncContext(ctx, src, func(r Result) error {
		count++
		if s.opts.MaxOutput > 0 && count > s.opts.MaxOutput {
			fmt.Fprintf(w, "... (output truncated at %d lines)\n", s.opts.MaxOutput)
			return errTruncated
		}
		_, err := fmt.Fprintln(w, r.Line())
		return err
	})
	if errors.Is(err, errTruncated) {
		return nil
	}
	return err
}

// ClearAliases drops all aliases and DUEL-declared variables, like
// restarting the session. It waits for any in-flight evaluation to finish.
func (s *Session) ClearAliases() {
	s.evalMu.Lock()
	defer s.evalMu.Unlock()
	s.Env.ClearAliases()
}

// LastEvalTime reports the wall-clock duration of the most recent EvalNode
// (zero before the first evaluation). Safe to call while a query is in
// flight.
func (s *Session) LastEvalTime() time.Duration { return time.Duration(s.lastEval.Load()) }

// Counters exposes the evaluation instrumentation (symbol lookups, operator
// applications, symbolic compositions, values produced, memory loads) merged
// with the memory-layer traffic counters (target read requests, host
// round-trips, cache hits/misses, invalidations). It takes the evaluation
// lock so the snapshot is consistent — do not call it from within an emit
// callback of the same session.
func (s *Session) Counters() core.Counters {
	s.evalMu.Lock()
	defer s.evalMu.Unlock()
	return s.Env.Counters()
}

// Mem exposes the session's memory accessor — the single gateway all target
// reads and writes go through (see internal/memio).
func (s *Session) Mem() *memio.Accessor { return s.Env.Mem }

// ResetCounters zeroes the instrumentation counters. Like Counters, it must
// not be called from within an emit callback of the same session.
func (s *Session) ResetCounters() {
	s.evalMu.Lock()
	defer s.evalMu.Unlock()
	s.Env.ResetCounters()
}

// Values returns a range-over-func iterator over the results of src. The
// second element carries an evaluation error; iteration ends after an error
// is yielded.
//
//	for r, err := range ses.Values("x[..100] >? 0") {
//		if err != nil { ... }
//		fmt.Println(r.Line())
//	}
func (s *Session) Values(src string) iter.Seq2[Result, error] {
	return s.ValuesContext(context.Background(), src)
}

// ValuesContext is Values with caller-controlled cancellation: canceling ctx
// mid-iteration aborts the evaluation at its next step check, interrupts the
// memory chain, and yields the *core.CanceledError as the iterator's final
// element. Breaking out of the loop stops the evaluation immediately (the
// generator machinery unwinds before the next value is produced), so an
// abandoned iteration holds no session or target state.
func (s *Session) ValuesContext(ctx context.Context, src string) iter.Seq2[Result, error] {
	return func(yield func(Result, error) bool) {
		stop := errors.New("stop")
		err := s.EvalFuncContext(ctx, src, func(r Result) error {
			if !yield(r, nil) {
				return stop
			}
			return nil
		})
		if err != nil && !errors.Is(err, stop) {
			yield(Result{}, err)
		}
	}
}
