package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"duel/internal/duel/ast"
)

// StepLimitError reports an evaluation aborted by Options.MaxSteps.
type StepLimitError struct {
	Limit int
	Expr  string // symbolic expression of the node that hit the limit
}

func (e *StepLimitError) Error() string {
	if e.Expr != "" {
		return fmt.Sprintf("duel: evaluation exceeded %d values (at %s); aborting", e.Limit, e.Expr)
	}
	return fmt.Sprintf("duel: evaluation exceeded %d values; aborting", e.Limit)
}

// TimeoutError reports an evaluation aborted by Options.Timeout.
type TimeoutError struct {
	Limit time.Duration
	Expr  string // symbolic expression of the node under evaluation
}

func (e *TimeoutError) Error() string {
	if e.Expr != "" {
		return fmt.Sprintf("duel: evaluation exceeded %v (at %s); aborting", e.Limit, e.Expr)
	}
	return fmt.Sprintf("duel: evaluation exceeded %v; aborting", e.Limit)
}

// CanceledError reports an evaluation aborted because the caller's context
// was canceled (EvalContext). It unwraps to the context's error, so both
// errors.Is(err, context.Canceled) and errors.Is(err, context.
// DeadlineExceeded) work as callers expect.
type CanceledError struct {
	Expr  string // symbolic expression of the node under evaluation
	Cause error  // ctx.Err() (or context.Cause) at abort time
}

func (e *CanceledError) Error() string {
	if e.Expr != "" {
		return fmt.Sprintf("duel: evaluation canceled (at %s): %v", e.Expr, e.Cause)
	}
	return fmt.Sprintf("duel: evaluation canceled: %v", e.Cause)
}

func (e *CanceledError) Unwrap() error { return e.Cause }

// PanicError reports an internal evaluator panic recovered at the Eval
// boundary, carrying the symbolic expression of the node being evaluated —
// a bug turned into a diagnosable DUEL error instead of a dead session.
type PanicError struct {
	Expr string
	Val  any
}

func (e *PanicError) Error() string {
	if e.Expr != "" {
		return fmt.Sprintf("duel: internal error evaluating %s: %v", e.Expr, e.Val)
	}
	return fmt.Sprintf("duel: internal error: %v", e.Val)
}

// nodeExpr renders a node for error messages: its source text when the
// parser recorded it, its s-expression otherwise.
func nodeExpr(n *ast.Node) string {
	if n == nil {
		return ""
	}
	if n.Text != "" {
		return n.Text
	}
	return n.Sexp()
}

// exprUnder names the node most recently entered by step (falling back to
// the evaluation root), for errors raised asynchronously.
func (e *Env) exprUnder(root *ast.Node) string {
	if ln := e.lastNode; ln != nil {
		return nodeExpr(ln)
	}
	return nodeExpr(root)
}

// Eval is the hardened evaluation boundary every session should drive a
// Backend through. On top of Backend.Eval it enforces Options.Timeout with a
// watchdog that interrupts the session's memory accessor (so a wedged
// target call or injected hang cannot block the session past the deadline),
// and recovers internal panics into *PanicError values carrying the symbolic
// expression of the node being evaluated.
func Eval(e *Env, b Backend, n *ast.Node, emit EmitFn) error {
	return EvalContext(context.Background(), e, b, n, emit)
}

// EvalContext is Eval with caller-controlled cancellation: when ctx is
// canceled the watchdog cancels the evaluator at its next step check AND
// interrupts the session's memory chain, exactly like the Options.Timeout
// deadline — so a server can revoke a query mid-flight even while it is
// blocked inside a wedged target call. A context abort surfaces as a
// *CanceledError wrapping ctx's error; the deadline still surfaces as a
// *TimeoutError. The watchdog goroutine always terminates before EvalContext
// returns, so no goroutine outlives the call.
func EvalContext(ctx context.Context, e *Env, b Backend, n *ast.Node, emit EmitFn) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Expr: e.exprUnder(n), Val: p}
		}
	}()
	e.lastNode = nil
	if ctx == nil {
		ctx = context.Background()
	}
	// The watchdog reads the deadline from this copy: the session may
	// change Opts (REPL "set timeout") as soon as Eval returns, before the
	// goroutine has run.
	timeout := e.Opts.Timeout
	if timeout <= 0 && ctx.Done() == nil {
		return b.Eval(e, n, emit)
	}
	e.cancel.Store(false)
	var (
		stop    = make(chan struct{}) // closed when b.Eval returns
		fired   = make(chan struct{}) // closed after the watchdog tripped
		tripped atomic.Bool           // CAS arbiter: evaluator vs watchdog
		byCtx   bool                  // written before close(fired) only
	)
	go func() {
		var timerC <-chan time.Time
		if timeout > 0 {
			t := time.NewTimer(timeout)
			defer t.Stop()
			timerC = t.C
		}
		select {
		case <-stop:
			return
		case <-timerC:
		case <-ctx.Done():
			byCtx = true
		}
		// The evaluator may have finished in the same instant; only the
		// CAS winner gets to trip the cancellation machinery.
		if !tripped.CompareAndSwap(false, true) {
			return
		}
		e.cancel.Store(true)
		e.Mem.Interrupt()
		close(fired)
	}()
	err = b.Eval(e, n, emit)
	close(stop)
	if tripped.CompareAndSwap(false, true) {
		// The evaluator won: the watchdog can no longer trip.
		return err
	}
	// The watchdog tripped (or is mid-trip): wait for it to finish, then
	// clear the cancellation so the next evaluation starts clean.
	<-fired
	e.cancel.Store(false)
	e.Mem.Resume()
	if err != nil {
		if byCtx {
			var ce *CanceledError
			if !errors.As(err, &ce) {
				// The abort surfaced as a step-check timeout or an
				// interrupted memory fault; report the context as the
				// cause.
				err = &CanceledError{Expr: e.exprUnder(n), Cause: context.Cause(ctx)}
			}
		} else {
			var te *TimeoutError
			if !errors.As(err, &te) {
				// The abort surfaced as an interrupted memory fault
				// (or similar); report the deadline as the cause.
				err = &TimeoutError{Limit: timeout, Expr: e.exprUnder(n)}
			}
		}
	}
	return err
}
