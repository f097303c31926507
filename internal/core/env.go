// Package core implements DUEL's generator evaluator — the paper's primary
// contribution. An expression is evaluated by driving its AST: every node
// can produce zero or more values, and the operators enumerate their
// operands' value sequences exactly as the paper's operational semantics
// prescribe (binary operators re-evaluate their right operand for every
// value of the left one, comparisons yield their left operand, with/dfs
// manipulate a name-resolution stack, and so on).
//
// Each node kind is split in two. Its semantics — what the node computes
// from its operand values — is written once, in sem.go. Its control — how
// the operand values are pulled — belongs to one of two drivers:
//
//   - push: a yield-callback evaluator (idiomatic Go; the default and the
//     production evaluator),
//   - machine: the paper's explicit per-node state/NOVALUE state machine,
//     kept as the reference oracle.
//
// Differential tests check that the drivers agree value-for-value; the
// paper's catalog and the semantics tests check what they share.
package core

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync/atomic"
	"time"

	"duel/internal/ctype"
	"duel/internal/dbgif"
	"duel/internal/duel/ast"
	"duel/internal/duel/value"
	"duel/internal/memio"
)

// Options control evaluation.
type Options struct {
	// Symbolic enables computation of symbolic values (derivation
	// strings). Disabling it reproduces the paper's observation that the
	// symbolic computation often costs more than the value computation.
	Symbolic bool
	// CycleDetect makes --> and -->> skip already-visited nodes. The
	// paper's implementation "does not handle cycles"; this is the
	// documented extension (off = faithful).
	CycleDetect bool
	// CScoping gives '.' and '->' C field-access semantics when the right
	// side is a bare name: the field resolves directly and no with-scope
	// opens, so nothing leaks into sibling operands ("p->x = x" reads the
	// parameter x, as in C). The micro-C interpreter sets it for debuggee
	// code; DUEL sessions leave it off, keeping the paper's coroutine
	// scoping (see TestWithScopeOpenDuringAssignment).
	CScoping bool
	// LookupCache memoizes target-symbol resolution for the duration of
	// one evaluation — the paper's anticipated optimization ("for many
	// Duel expressions, run-time type checking and symbol lookup could be
	// done at compile time"). It assumes the frame layout does not change
	// mid-expression; calls into the target that push frames do not
	// disturb it because resolved addresses stay valid for the selected
	// frame. Off by default (faithful).
	LookupCache bool
	// MaxOpenRange bounds the unbounded generator "e.." so a runaway
	// expression fails loudly instead of hanging.
	MaxOpenRange int
	// MaxSteps bounds the total number of values produced by one Eval
	// (0 = no bound).
	MaxSteps int
	// Timeout bounds one Eval's wall-clock time (0 = no bound). Use the
	// Eval function (rather than calling a Backend directly) to get the
	// deadline enforced; on expiry the session's accessor is interrupted,
	// so even a wedged target call cannot hang the session, and the
	// evaluation fails with a *TimeoutError.
	Timeout time.Duration
	// ErrorValues contains target faults per element instead of aborting
	// the whole expression (extension; off = faithful to the paper's
	// abort-with-symbolic-message behavior). A faulted element becomes an
	// error value carrying its symbolic derivation and the fault, the
	// display layer prints it as "x[3]->p = <unmapped address 0x16820>",
	// and the enclosing generator continues with the next element.
	ErrorValues bool
	// MaxExpand bounds the number of nodes one --> expansion visits.
	MaxExpand int
	// MaxCStringLen bounds string reads from the target.
	MaxCStringLen int
	// MemCache enables the page-granular target-read cache in the memio
	// accessor every session routes its memory traffic through. Off by
	// default (faithful to the paper: one engine read, one debugger
	// round-trip); on, scans and list walks hit the host an order of
	// magnitude less often. Writes, allocations and target calls
	// invalidate, so values never go stale (see internal/memio).
	MemCache bool
	// MemCachePageSize is the cache granularity in bytes (0 = memio
	// default; rounded up to a power of two).
	MemCachePageSize int
	// MemCachePages bounds the resident page count, LRU-evicted
	// (0 = memio default).
	MemCachePages int
	// Trace, when non-nil, makes the machine backend log every eval call
	// in the style of the paper's §Semantics walkthrough of
	// (1..3)+(5,9): one line per produced value (or NOVALUE) per node,
	// indented by recursion depth. push ignores it.
	Trace io.Writer
}

// DefaultOptions returns the standard evaluation options.
func DefaultOptions() Options {
	return Options{
		Symbolic:      true,
		CycleDetect:   false,
		MaxOpenRange:  1 << 22,
		MaxSteps:      0,
		MaxExpand:     1 << 22,
		MaxCStringLen: 200,
	}
}

// Counters instrument evaluation; the F2 cost-breakdown experiment reads
// them. The memory-layer fields are merged in from the session's
// memio.Accessor by Env.Counters.
type Counters struct {
	Lookups  int64 // symbol-table fetches (the paper's "100 lookups of i")
	Applies  int64 // operator applications
	SymOps   int64 // symbolic-value compositions
	Values   int64 // values produced (all nodes)
	MemReads int64 // lvalue loads

	SymRenders int64 // symbolic texts rendered: printed values, error messages, aliases

	TargetReads   int64 // GetTargetBytes requests the engine issued
	TargetBytes   int64 // bytes those requests asked for
	HostReads     int64 // round-trips that actually reached the host debugger
	HostBytes     int64 // bytes those round-trips returned
	CacheHits     int64 // memio page-cache hits
	CacheMisses   int64 // memio page fills and uncached fallbacks
	Invalidations int64 // pages dropped by writes, allocs and call flushes
	MemTransients int64 // transient target faults observed by the accessor
	MemRetries    int64 // retries the accessor's backoff spent absorbing them
}

// errStop is the internal sentinel used to terminate enumeration early
// (reductions, while, @). It never escapes the package.
var errStop = errors.New("duel: stop enumeration")

// withEntry is one element of the name-resolution stack manipulated by the
// with operator (push/pop in the paper).
type withEntry struct {
	// orig is the operand value, what "_" refers to.
	orig value.Value
	// scope is the opened struct value (deref'd for ->), or a frame
	// scope; invalid (zero) when the operand opens no fields.
	scope    value.Value
	hasScope bool
	// badType is set when the operand was a null or invalid pointer to a
	// struct: its field names still resolve here, but resolving one is an
	// illegal memory reference. This makes the paper's guard idiom
	// "hash[..1024]->(if (_ && scope > 5) name)" work: "_" tests the
	// pointer, and the fields fault only if actually touched.
	badType *ctype.Struct
	badAddr uint64
	// badErr, when set, is the target fault that made the pointer bad
	// (e.g. the read of the pointer itself faulted); resolving a field
	// reports it instead of a plain illegal-reference message.
	badErr error
}

// Env is the evaluation state for one DUEL session: the memory accessor
// over the debugger interface, aliases, DUEL-declared variables and the
// with name-resolution stack.
type Env struct {
	Ctx  *value.Ctx
	Opts Options
	Num  Counters
	// Mem is the session's single gateway for target-memory traffic; it is
	// the same accessor Ctx.D holds, so the value engine, the display layer
	// and both backends share its cache and counters.
	Mem *memio.Accessor

	aliases    map[string]value.Value
	aliasOrder []string
	withStack  []withEntry
	varCache   map[string]dbgif.VarInfo
	declAddrs  map[*ast.Node]uint64 // storage of DUEL declarations, per node
	strAddrs   map[*ast.Node]uint64 // interned string literals, per node
	steps      int

	// syms records the derivations of the symbolic values of the current
	// evaluation (Ctx.Syms points at it). It is reset when the outermost
	// evaluation ends; evals counts the evaluations in flight, since a
	// breakpoint condition can run nested inside a DUEL-driven target call.
	syms  value.SymStore
	evals int
	// ctx is what Ctx points at. It lives inside the Env, not in a small
	// allocation of its own: a load writes its scratch, and a small object
	// can share a cache line with another session's.
	ctx value.Ctx
	// consts holds the values of integer constants built in the current
	// evaluation (constValue). Their symbolic handles live in syms, so
	// resetSyms clears it with the store.
	consts    [4]constEntry
	nextConst int

	// cancel is set by the Eval deadline watchdog (and cleared when the
	// evaluation finishes); step checks it so every backend notices a
	// timeout at its next produced value.
	cancel atomic.Bool
	// lastNode tracks the node most recently entered by step, so panic
	// recovery and timeout errors can report the symbolic expression
	// under evaluation. Only the evaluating goroutine reads it.
	lastNode *ast.Node
}

// NewEnv returns a fresh environment over the given debugger, routing all
// target-memory traffic through a memio.Accessor built from opts. A debugger
// that already is an Accessor is used as-is (its own cache config wins), so
// sessions can share one accessor deliberately.
func NewEnv(d dbgif.Debugger, opts Options) *Env {
	acc, ok := d.(*memio.Accessor)
	if !ok {
		acc = memio.New(d, memio.Config{
			Cache:    opts.MemCache,
			PageSize: opts.MemCachePageSize,
			MaxPages: opts.MemCachePages,
		})
	}
	e := &Env{
		Opts:      opts,
		Mem:       acc,
		aliases:   make(map[string]value.Value),
		declAddrs: make(map[*ast.Node]uint64),
		strAddrs:  make(map[*ast.Node]uint64),
	}
	e.ctx = value.Ctx{Arch: d.Arch(), D: acc, Syms: &e.syms}
	e.Ctx = &e.ctx
	return e
}

// Counters returns the evaluation counters with the memory-layer traffic of
// the session's accessor merged in.
func (e *Env) Counters() Counters {
	c := e.Num
	s := e.Mem.Stats()
	c.TargetReads = s.Reads
	c.TargetBytes = s.ReadBytes
	c.HostReads = s.HostReads
	c.HostBytes = s.HostBytes
	c.CacheHits = s.Hits
	c.CacheMisses = s.Misses
	c.Invalidations = s.Invalidations
	c.MemTransients = s.Transients
	c.MemRetries = s.Retries
	c.SymRenders = e.syms.Renders
	return c
}

// ResetCounters zeroes the instrumentation counters, including the
// memory-layer traffic counters.
func (e *Env) ResetCounters() {
	e.Num = Counters{}
	e.syms.Renders = 0
	e.Mem.ResetStats()
}

// beginEval prepares per-command state. Every call is paired with endEval.
func (e *Env) beginEval() {
	if e.evals == 0 {
		e.resetSyms()
	}
	e.evals++
	e.steps = 0
	e.withStack = e.withStack[:0]
	if e.Opts.LookupCache {
		e.varCache = make(map[string]dbgif.VarInfo)
	} else {
		e.varCache = nil
	}
}

// endEval ends an evaluation begun by beginEval. The outermost one drops
// its symbolic values, so an idle session holds no derivations.
func (e *Env) endEval() {
	e.evals--
	if e.evals == 0 {
		e.resetSyms()
	}
}

// resetSyms drops the symbolic values of the ended evaluation and the
// constants that carry them.
func (e *Env) resetSyms() {
	e.syms.Reset()
	e.consts = [len(e.consts)]constEntry{}
}

func (e *Env) step(n *ast.Node) error {
	e.lastNode = n
	e.Num.Values++
	e.steps++
	if e.cancel.Load() {
		return &TimeoutError{Limit: e.Opts.Timeout, Expr: nodeExpr(n)}
	}
	if e.Opts.MaxSteps > 0 && e.steps > e.Opts.MaxSteps {
		return &StepLimitError{Limit: e.Opts.MaxSteps, Expr: nodeExpr(n)}
	}
	return nil
}

// --- aliases ---

// Alias returns the aliased value.
func (e *Env) Alias(name string) (value.Value, bool) {
	v, ok := e.aliases[name]
	return v, ok
}

// SetAlias defines name as an alias for v (the paper's define / alias()).
// The alias keeps v's symbolic value as rendered text, which outlives the
// evaluation.
func (e *Env) SetAlias(name string, v value.Value) {
	if _, exists := e.aliases[name]; !exists {
		e.aliasOrder = append(e.aliasOrder, name)
	}
	v.Sym = e.syms.Keep(name, v.Sym)
	e.aliases[name] = v
}

// ClearAliases removes all aliases (the debugger's "duel clear" command).
func (e *Env) ClearAliases() {
	e.aliases = make(map[string]value.Value)
	e.aliasOrder = nil
	e.declAddrs = make(map[*ast.Node]uint64)
	e.syms.DropKept()
}

// Aliases lists alias names in definition order.
func (e *Env) Aliases() []string {
	out := make([]string, len(e.aliasOrder))
	copy(out, e.aliasOrder)
	return out
}

// --- with stack ---

// pushWith pushes an empty entry and returns it for the caller to fill in
// place. The pointer is valid until the next push.
func (e *Env) pushWith() *withEntry {
	e.withStack = append(e.withStack, withEntry{})
	return &e.withStack[len(e.withStack)-1]
}

func (e *Env) popWith() { e.withStack = e.withStack[:len(e.withStack)-1] }

// --- name resolution (the paper's fetch) ---

// fetch resolves a name: with-scopes innermost first, then aliases, then
// target variables (current frame, then globals and functions), then
// enumeration constants.
func (e *Env) fetch(name string) (value.Value, error) {
	e.Num.Lookups++
	if name == "_" {
		if n := len(e.withStack); n > 0 {
			return e.withStack[n-1].orig, nil
		}
		return value.Value{}, fmt.Errorf("duel: \"_\" used outside of a with scope ('.', '->', '-->', '@')")
	}
	for i := len(e.withStack) - 1; i >= 0; i-- {
		w := &e.withStack[i]
		if w.badType != nil {
			if _, ok := w.badType.Field(name); ok {
				return e.badFieldRef(w, name)
			}
		}
		if !w.hasScope {
			continue
		}
		if w.scope.FrameScope > 0 {
			if vi, ok := e.Ctx.D.FrameVariable(int(w.scope.FrameScope)-1, name); ok {
				lv := value.Lvalue(vi.Type, vi.Addr)
				lv.Sym = e.atom(name)
				return lv, nil
			}
			continue
		}
		if value.HasField(w.scope, name) {
			f, err := e.Ctx.Field(w.scope, name)
			if err != nil {
				return value.Value{}, err
			}
			f.Sym = e.atom(name)
			return f, nil
		}
	}
	if v, ok := e.aliases[name]; ok {
		v.Sym = e.atom(name)
		return v, nil
	}
	if e.varCache != nil {
		if vi, ok := e.varCache[name]; ok {
			lv := value.Lvalue(vi.Type, vi.Addr)
			lv.Sym = e.atom(name)
			return lv, nil
		}
	}
	if vi, ok := e.Ctx.D.GetTargetVariable(name); ok {
		if e.varCache != nil {
			e.varCache[name] = vi
		}
		lv := value.Lvalue(vi.Type, vi.Addr)
		lv.Sym = e.atom(name)
		return lv, nil
	}
	if t, v, ok := e.Ctx.D.LookupEnumConst(name); ok {
		ev := value.MakeInt(t, v)
		ev.Sym = e.atom(name)
		return ev, nil
	}
	return value.Value{}, fmt.Errorf("duel: no symbol %q in current context", name)
}

// --- symbolic helpers (gated on Opts.Symbolic) ---
//
// Each helper records one O(1) derivation step in the Env's SymStore;
// nothing is rendered until a value is printed or named in an error.
// SymOps counts the compositions the helpers make.

func (e *Env) atom(s string) value.Sym {
	if !e.Opts.Symbolic {
		return value.Sym{}
	}
	e.Num.SymOps++
	return e.syms.Text(s)
}

func (e *Env) intAtom(i int64) value.Sym {
	if !e.Opts.Symbolic {
		return value.Sym{}
	}
	e.Num.SymOps++
	return e.syms.Int(i)
}

func (e *Env) binSym(a value.Sym, op string, b value.Sym, prec int) value.Sym {
	if !e.Opts.Symbolic {
		return value.Sym{}
	}
	e.Num.SymOps++
	return e.syms.Binary(a, op, b, prec)
}

func (e *Env) preSym(op string, a value.Sym) value.Sym {
	if !e.Opts.Symbolic {
		return value.Sym{}
	}
	e.Num.SymOps++
	return e.syms.Pre(op, a)
}

func (e *Env) postSym(a value.Sym, op string) value.Sym {
	if !e.Opts.Symbolic {
		return value.Sym{}
	}
	e.Num.SymOps++
	return e.syms.Post(a, op)
}

func (e *Env) indexSym(base value.Sym, idx value.Sym) value.Sym {
	if !e.Opts.Symbolic {
		return value.Sym{}
	}
	e.Num.SymOps++
	return e.syms.Index(base, idx)
}

// withSym composes the symbolic value of a with expression: base->field or
// base.field. If the inner value's symbolic text equals the base's (it came
// from "_", or names the same thing: "x[3].(x[3])"), it is passed through
// unchanged, so "x[..10].if (_ < 0) _" displays as "x[3]", per the paper.
func (e *Env) withSym(base value.Sym, op string, inner value.Sym) value.Sym {
	if !e.Opts.Symbolic {
		return value.Sym{}
	}
	if e.syms.Equal(base, inner) {
		return inner
	}
	e.Num.SymOps++
	return e.syms.With(base, op, inner)
}

// pathRoot is the path of the root of a --> expansion.
func (e *Env) pathRoot(root value.Sym) value.Sym {
	if !e.Opts.Symbolic {
		return value.Sym{}
	}
	return e.syms.PathRoot(root)
}

// pathStep is the path of a --> child: the path of the node it was reached
// from plus the step expression's symbolic value. It is O(1), so a walk
// costs the same per node at any depth (SymStore.Step compresses runs and
// bounds the rendered text).
func (e *Env) pathStep(parent, step value.Sym) value.Sym {
	if !e.Opts.Symbolic {
		return value.Sym{}
	}
	return e.syms.Step(parent, step)
}

// countSym counts the use of a symbolic value built earlier in the
// evaluation as the composition it stands for.
func (e *Env) countSym() {
	if e.Opts.Symbolic {
		e.Num.SymOps++
	}
}

// text renders s, for error messages.
func (e *Env) text(s value.Sym) string { return e.syms.String(s) }

// --- storage helpers ---

// declStorage returns (allocating on first use) the target storage of a
// DUEL declaration node, and registers the alias.
func (e *Env) declStorage(n *ast.Node) (value.Value, error) {
	if addr, ok := e.declAddrs[n]; ok {
		lv := value.Lvalue(n.Type, addr)
		lv.Sym = e.atom(n.Name)
		return lv, nil
	}
	size := n.Type.Size()
	if size == 0 {
		return value.Value{}, fmt.Errorf("duel: declared variable %q has incomplete type %s", n.Name, n.Type)
	}
	addr, err := e.Ctx.D.AllocTargetSpace(size, n.Type.Align())
	if err != nil {
		return value.Value{}, fmt.Errorf("duel: allocating %q: %w", n.Name, err)
	}
	if err := e.Ctx.D.PutTargetBytes(addr, make([]byte, size)); err != nil {
		return value.Value{}, err
	}
	e.declAddrs[n] = addr
	lv := value.Lvalue(n.Type, addr)
	lv.Sym = e.atom(n.Name)
	e.SetAlias(n.Name, value.Lvalue(n.Type, addr))
	return lv, nil
}

// internString materializes a string literal in the target (once per node)
// and returns it as a char-array lvalue, so it decays to char* like a C
// string literal.
func (e *Env) internString(n *ast.Node) (value.Value, error) {
	arch := e.Ctx.Arch
	t := arch.ArrayOf(arch.Char, len(n.Str)+1)
	if addr, ok := e.strAddrs[n]; ok {
		lv := value.Lvalue(t, addr)
		lv.Sym = e.atom(n.Text)
		return lv, nil
	}
	addr, err := e.Ctx.D.AllocTargetSpace(len(n.Str)+1, 1)
	if err != nil {
		return value.Value{}, err
	}
	if err := e.Ctx.D.PutTargetBytes(addr, append([]byte(n.Str), 0)); err != nil {
		return value.Value{}, err
	}
	e.strAddrs[n] = addr
	lv := value.Lvalue(t, addr)
	lv.Sym = e.atom(n.Text)
	return lv, nil
}

// containStore classifies a failed Store: under Options.ErrorValues a
// read-only-target fault (a core dump, any substrate whose Capabilities
// report CanWrite=false) is contained into an error value carrying the
// destination's symbolic derivation — exactly how a read fault is contained
// by load — so "x[..n] = 0" against a core fails per element and the
// enclosing generator continues. Every other error, and every error with
// ErrorValues off, aborts as before.
func (e *Env) containStore(dst value.Value, err error) (value.Value, bool) {
	if err == nil || !e.Opts.ErrorValues || !errors.Is(err, dbgif.ErrReadOnlyTarget) {
		return value.Value{}, false
	}
	return value.Poison(dst.Sym, err), true
}

// containCall is containStore for CallTargetFunc failures: a call into a
// read-only target becomes one error value per argument combination under
// Options.ErrorValues.
func (e *Env) containCall(sym value.Sym, err error) (value.Value, bool) {
	if err == nil || !e.Opts.ErrorValues || !errors.Is(err, dbgif.ErrReadOnlyTarget) {
		return value.Value{}, false
	}
	return value.Poison(sym, err), true
}

// callResultSym composes the symbolic value of a call result,
// "f(arg1, arg2)", shared by every backend so their transcripts stay
// byte-identical.
func (e *Env) callResultSym(fv value.Value, args []value.Value) value.Sym {
	if !e.Opts.Symbolic {
		return value.Sym{}
	}
	e.Num.SymOps++
	return e.syms.Call(fv.Sym, args)
}

// badFieldRef reports the resolution of a field behind a bad pointer: the
// paper's symbolic error, or — under Options.ErrorValues — an error value
// that poisons just this element.
func (e *Env) badFieldRef(w *withEntry, name string) (value.Value, error) {
	orig := e.text(w.orig.Sym)
	err := &value.MemError{
		Context: orig + "->" + name,
		Sym:     orig,
		Addr:    w.badAddr,
		Err:     w.badErr,
	}
	if e.Opts.ErrorValues {
		return value.Poison(e.atom(name), err), nil
	}
	return value.Value{}, err
}

// load converts *v to its rvalue in place (Ctx.Load), counting loads for
// the F2 breakdown. Under Options.ErrorValues a load fault makes *v an
// error value instead of aborting the evaluation; type errors still
// propagate.
func (e *Env) load(v *value.Value) error {
	if v.IsLvalue {
		e.Num.MemReads++
	}
	err := e.Ctx.Load(v)
	if err != nil && e.Opts.ErrorValues {
		var me *value.MemError
		if errors.As(err, &me) {
			*v = value.Poison(v.Sym, err)
			return nil
		}
	}
	return err
}

// validAddr reports whether addr, a pointer of type pt, is non-null and
// points to readable memory of its pointee's size (the paper: "until a
// NULL pointer or an invalid pointer terminates the sequence").
func (e *Env) validAddr(pt *ctype.Pointer, addr uint64) bool {
	if addr == 0 {
		return false
	}
	size := pt.Elem.Size()
	if size == 0 {
		size = 1
	}
	return e.Ctx.D.ValidTargetAddr(addr, size)
}

// FormatScalar renders a scalar value for the curly display override and
// reductions; the display package provides the richer top-level formatting.
func (e *Env) FormatScalar(rv value.Value) (string, error) {
	if err := e.load(&rv); err != nil {
		return "", err
	}
	if rv.IsPoison() {
		return "<" + rv.ErrText() + ">", nil
	}
	st := ctype.Strip(rv.Type)
	switch {
	case ctype.IsFloat(st):
		return strconv.FormatFloat(rv.AsFloat(), 'g', -1, 64), nil
	case ctype.IsPointer(st):
		return fmt.Sprintf("0x%x", rv.AsUint()), nil
	case ctype.IsInteger(st):
		if ctype.IsSigned(st) {
			return strconv.FormatInt(rv.AsInt(), 10), nil
		}
		return strconv.FormatUint(rv.AsUint(), 10), nil
	}
	return "", fmt.Errorf("duel: cannot format value of type %s", rv.Type)
}
