// Package microc interprets micro-C programs against a simulated target
// process. It is the debuggee substrate: where the paper attached gdb to a
// running C program, this package gives the mini-debugger a live process —
// globals laid out with C layout rules, a call stack with typed frames,
// heap allocation, and runnable function bodies with per-statement hooks for
// breakpoints and stepping.
package microc

import (
	"errors"
	"fmt"

	"duel/internal/core"
	"duel/internal/cparse"
	"duel/internal/ctype"
	"duel/internal/dbgif"
	"duel/internal/duel/ast"
	"duel/internal/duel/parser"
	"duel/internal/duel/value"
	"duel/internal/target"
)

// progEnv adapts a target process to the parser's declaration environment,
// so parsed type definitions register directly in the process's symbol
// tables.
type progEnv struct{ p *target.Process }

func (e progEnv) Arch() *ctype.Arch { return e.p.Arch }

func (e progEnv) LookupTypedef(name string) (ctype.Type, bool) {
	td, ok := e.p.Typedef(name)
	if !ok {
		return nil, false
	}
	return td, true
}

func (e progEnv) LookupStruct(tag string, union bool) (*ctype.Struct, bool) {
	return e.p.Struct(tag, union)
}

func (e progEnv) LookupEnum(tag string) (*ctype.Enum, bool) { return e.p.Enum(tag) }

func (e progEnv) DeclareStruct(tag string, union bool) *ctype.Struct {
	return e.p.DeclareStruct(tag, union)
}

func (e progEnv) CompleteStruct(s *ctype.Struct, fields []ctype.FieldSpec) error {
	return e.p.Arch.SetFields(s, fields)
}

func (e progEnv) DefineTypedef(name string, t ctype.Type) error {
	_, err := e.p.DefineTypedef(name, t)
	return err
}

func (e progEnv) DefineEnum(en *ctype.Enum) error { return e.p.DefineEnum(en) }

var _ parser.DeclEnv = progEnv{}

// StmtHook observes execution before each statement; returning an error
// aborts the program. The debugger uses it for breakpoints and stepping.
// isBlock marks container block statements, which debuggers usually skip.
type StmtHook func(fn *cparse.FuncDef, line int, isBlock bool) error

// Interp executes micro-C code in a target process.
type Interp struct {
	P    *target.Process
	D    dbgif.Debugger
	File *cparse.File
	// Hook, when set, runs before every statement.
	Hook StmtHook
	// MaxDepth bounds recursion.
	MaxDepth int

	env   *core.Env
	depth int
}

// control-flow sentinels
var (
	errBreak    = errors.New("microc: break")
	errContinue = errors.New("microc: continue")
)

type returnErr struct{ val target.Datum }

func (returnErr) Error() string { return "microc: return" }

// Load parses src, lays out its globals in the process, registers its
// functions, applies initializers, and returns an interpreter ready to run.
// d must be a debugger view of the same process.
func Load(p *target.Process, d dbgif.Debugger, src string) (*Interp, error) {
	RegisterNatives(p)
	file, err := cparse.Parse(src, progEnv{p})
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	opts.Symbolic = false
	// Debuggee code is C: bare-name field access must not open a DUEL
	// with-scope, so "p->x = x" reads the parameter x as a C compiler
	// would.
	opts.CScoping = true
	// The interpreter is the target's own CPU: it writes new stack frames
	// straight into the process's memory, behind the accessor, so a page
	// cache would serve it the bytes from before the write.
	opts.MemCache = false
	in := &Interp{P: p, D: d, File: file, MaxDepth: 512, env: core.NewEnv(d, opts)}
	p.CallBody = in.callBody

	// Register functions first, so initializers and bodies can reference
	// any of them.
	for _, fn := range file.Funcs {
		tf := &target.Func{Name: fn.Name, Type: fn.Type, Params: fn.ParamNames, Body: fn, Line: fn.Line}
		if err := p.DefineFunc(tf); err != nil {
			return nil, err
		}
	}
	// Lay out the globals.
	for _, g := range file.Globals {
		t := g.Type
		if a, ok := ctype.Strip(t).(*ctype.Array); ok && a.Len < 0 && g.Init != nil {
			// "int a[] = {...}" takes its length from the initializer;
			// "char s[] = "str"" from the string.
			switch {
			case g.Init.List != nil:
				t = p.Arch.ArrayOf(a.Elem, len(g.Init.List))
			case g.Init.Expr != nil && g.Init.Expr.Op == ast.OpStr:
				t = p.Arch.ArrayOf(a.Elem, len(g.Init.Expr.Str)+1)
			}
		}
		v, err := p.DefineGlobal(g.Name, t)
		if err != nil {
			return nil, err
		}
		if g.Init != nil {
			if err := in.applyInit(v.Addr, t, g.Init); err != nil {
				return nil, fmt.Errorf("initializing %q: %w", g.Name, err)
			}
		}
	}
	return in, nil
}

// applyInit stores an initializer at addr with the given type.
func (in *Interp) applyInit(addr uint64, t ctype.Type, init *cparse.Init) error {
	st := ctype.Strip(t)
	if init.List != nil {
		switch x := st.(type) {
		case *ctype.Array:
			if len(init.List) > x.Len {
				return fmt.Errorf("too many initializers for %s", t)
			}
			for i, item := range init.List {
				if err := in.applyInit(addr+uint64(i*x.Elem.Size()), x.Elem, item); err != nil {
					return err
				}
			}
			return nil
		case *ctype.Struct:
			if x.Union {
				if len(init.List) > 1 {
					return fmt.Errorf("too many initializers for %s", t)
				}
				if len(init.List) == 1 {
					f := x.Fields[0]
					return in.applyInit(addr+uint64(f.Off), f.Type, init.List[0])
				}
				return nil
			}
			if len(init.List) > len(x.Fields) {
				return fmt.Errorf("too many initializers for %s", t)
			}
			for i, item := range init.List {
				f := x.Fields[i]
				if f.IsBitfield() {
					return fmt.Errorf("bitfield initializers are not supported")
				}
				if err := in.applyInit(addr+uint64(f.Off), f.Type, item); err != nil {
					return err
				}
			}
			return nil
		default:
			if len(init.List) != 1 {
				return fmt.Errorf("scalar %s initialized with a list", t)
			}
			return in.applyInit(addr, t, init.List[0])
		}
	}
	// "char s[...] = "str"": copy the string into the array.
	if a, ok := st.(*ctype.Array); ok && init.Expr != nil && init.Expr.Op == ast.OpStr {
		b := append([]byte(init.Expr.Str), 0)
		if len(b) > a.Size() {
			return fmt.Errorf("string initializer longer than %s", t)
		}
		return in.P.Space.Write(addr, b)
	}
	v, err := in.evalLast(init.Expr)
	if err != nil {
		return err
	}
	lv := value.Lvalue(t, addr)
	return in.env.Ctx.Store(lv, v)
}

// --- expression evaluation (C semantics over the DUEL engine) ---

// evalLast drives e fully (for side effects) and returns its last value,
// which matches C's comma-expression result.
func (in *Interp) evalLast(e *ast.Node) (value.Value, error) {
	var last value.Value
	got := false
	err := in.env.Drive(e, func(v value.Value) error {
		last = v
		got = true
		return nil
	})
	if err != nil {
		return value.Value{}, err
	}
	if !got {
		return value.Value{}, fmt.Errorf("microc: expression produced no value")
	}
	rv, err := in.env.Ctx.Rval(last)
	if err != nil {
		return value.Value{}, err
	}
	return rv, nil
}

// evalDiscard drives e for its side effects only.
func (in *Interp) evalDiscard(e *ast.Node) error {
	return in.env.Drive(e, func(value.Value) error { return nil })
}

// evalTruth evaluates a C condition. Per DUEL's generator semantics,
// "a && b" with a false left operand produces NO values — which in a C
// condition means false — so an empty value sequence is false, and
// otherwise the last value decides (C comma semantics).
func (in *Interp) evalTruth(e *ast.Node) (bool, error) {
	var last value.Value
	got := false
	err := in.env.Drive(e, func(v value.Value) error {
		last = v
		got = true
		return nil
	})
	if err != nil {
		return false, err
	}
	if !got {
		return false, nil
	}
	rv, err := in.env.Ctx.Rval(last)
	if err != nil {
		return false, err
	}
	return in.env.Ctx.Truth(rv)
}

// --- execution ---

// callBody implements target.Process.CallBody: it runs a micro-C function.
func (in *Interp) callBody(p *target.Process, f *target.Func, args []target.Datum) (target.Datum, error) {
	fn, ok := f.Body.(*cparse.FuncDef)
	if !ok {
		return target.Datum{}, fmt.Errorf("microc: function %q has a foreign body", f.Name)
	}
	in.depth++
	defer func() { in.depth-- }()
	if in.depth > in.MaxDepth {
		return target.Datum{}, fmt.Errorf("microc: call depth exceeded %d (infinite recursion?) in %q", in.MaxDepth, f.Name)
	}
	if len(args) != len(fn.Type.Params) {
		return target.Datum{}, fmt.Errorf("microc: %q called with %d args, wants %d", f.Name, len(args), len(fn.Type.Params))
	}
	fr := p.PushFrame(f)
	defer func() {
		if err := p.PopFrame(); err != nil {
			panic(err) // frame discipline bug
		}
	}()
	for i, pt := range fn.Type.Params {
		name := "arg" + fmt.Sprint(i)
		if i < len(fn.ParamNames) && fn.ParamNames[i] != "" {
			name = fn.ParamNames[i]
		}
		lv, err := p.AddLocal(fr, name, pt)
		if err != nil {
			return target.Datum{}, err
		}
		conv, err := in.env.Ctx.Convert(value.FromBytes(args[i].Type, args[i].Bytes), pt)
		if err != nil {
			return target.Datum{}, fmt.Errorf("microc: argument %d of %q: %w", i, f.Name, err)
		}
		if err := p.Space.Write(lv.Addr, conv.Bytes()); err != nil {
			return target.Datum{}, err
		}
	}
	err := in.execStmt(fn, fr, fn.Body)
	var ret returnErr
	switch {
	case err == nil:
		return target.Datum{Type: in.P.Arch.Void}, nil
	case errors.As(err, &ret):
		return ret.val, nil
	case errors.Is(err, errBreak), errors.Is(err, errContinue):
		return target.Datum{}, fmt.Errorf("microc: break/continue outside a loop in %q", f.Name)
	default:
		return target.Datum{}, err
	}
}

// Call runs the named function with the given typed arguments.
func (in *Interp) Call(name string, args []target.Datum) (target.Datum, error) {
	return in.P.Call(name, args)
}

// CallInts runs the named function passing plain int arguments, returning
// the result as an int64 (0 for void).
func (in *Interp) CallInts(name string, args ...int64) (int64, error) {
	arch := in.P.Arch
	in2 := make([]target.Datum, len(args))
	f, ok := in.P.Function(name)
	if !ok {
		return 0, fmt.Errorf("microc: no function %q", name)
	}
	for i, a := range args {
		t := ctype.Type(arch.Int)
		if i < len(f.Type.Params) {
			t = f.Type.Params[i]
		}
		v, err := in.env.Ctx.Convert(value.MakeInt(arch.Long, a), t)
		if err != nil {
			return 0, err
		}
		in2[i] = target.Datum{Type: v.Type, Bytes: v.Bytes()}
	}
	out, err := in.P.CallFunc(f, in2)
	if err != nil {
		return 0, err
	}
	if out.Type == nil || ctype.IsVoid(out.Type) {
		return 0, nil
	}
	return value.FromBytes(out.Type, out.Bytes).AsInt(), nil
}

// RunMain builds argc/argv in the target heap and calls main.
func (in *Interp) RunMain(argv []string) (int64, error) {
	f, ok := in.P.Function("main")
	if !ok {
		return 0, fmt.Errorf("microc: program has no main function")
	}
	var args []target.Datum
	if len(f.Type.Params) >= 2 {
		arch := in.P.Arch
		ptrs := make([]uint64, len(argv)+1)
		for i, s := range argv {
			a, err := in.P.NewCString(s)
			if err != nil {
				return 0, err
			}
			ptrs[i] = a
		}
		vecAddr, err := in.P.Alloc(arch.PtrSize*(len(argv)+1), arch.PtrSize)
		if err != nil {
			return 0, err
		}
		for i, a := range ptrs {
			if err := in.P.PokeInt(vecAddr+uint64(i*arch.PtrSize), arch.Ptr(arch.Ptr(arch.Char)), int64(a)); err != nil {
				return 0, err
			}
		}
		argc := value.MakeInt(arch.Int, int64(len(argv)))
		argvv := value.MakePtr(arch.Ptr(arch.Ptr(arch.Char)), vecAddr)
		args = []target.Datum{
			{Type: argc.Type, Bytes: argc.Bytes()},
			{Type: argvv.Type, Bytes: argvv.Bytes()},
		}
	}
	out, err := in.P.CallFunc(f, args)
	if err != nil {
		return 0, err
	}
	if out.Type == nil || ctype.IsVoid(out.Type) {
		return 0, nil
	}
	return value.FromBytes(out.Type, out.Bytes).AsInt(), nil
}

func (in *Interp) execStmt(fn *cparse.FuncDef, fr *target.Frame, s cparse.Stmt) error {
	if in.Hook != nil {
		_, isBlock := s.(*cparse.Block)
		if err := in.Hook(fn, s.StmtLine(), isBlock); err != nil {
			return err
		}
	}
	fr.Line = s.StmtLine()
	switch st := s.(type) {
	case *cparse.Block:
		for _, sub := range st.Stmts {
			if err := in.execStmt(fn, fr, sub); err != nil {
				return err
			}
		}
		return nil
	case *cparse.ExprStmt:
		return in.evalDiscard(st.E)
	case *cparse.DeclStmt:
		t := st.Type
		if a, ok := ctype.Strip(t).(*ctype.Array); ok && a.Len < 0 && st.Init != nil {
			switch {
			case st.Init.List != nil:
				t = in.P.Arch.ArrayOf(a.Elem, len(st.Init.List))
			case st.Init.Expr != nil && st.Init.Expr.Op == ast.OpStr:
				t = in.P.Arch.ArrayOf(a.Elem, len(st.Init.Expr.Str)+1)
			}
		}
		lv, err := in.P.AddLocal(fr, st.Name, t)
		if err != nil {
			return err
		}
		if st.Init != nil {
			return in.applyInit(lv.Addr, t, st.Init)
		}
		return nil
	case *cparse.IfStmt:
		t, err := in.evalTruth(st.Cond)
		if err != nil {
			return err
		}
		if t {
			return in.execStmt(fn, fr, st.Then)
		}
		if st.Else != nil {
			return in.execStmt(fn, fr, st.Else)
		}
		return nil
	case *cparse.WhileStmt:
		for {
			t, err := in.evalTruth(st.Cond)
			if err != nil {
				return err
			}
			if !t {
				return nil
			}
			if err := in.execStmt(fn, fr, st.Body); err != nil {
				if errors.Is(err, errBreak) {
					return nil
				}
				if !errors.Is(err, errContinue) {
					return err
				}
			}
		}
	case *cparse.ForStmt:
		if st.Init != nil {
			if err := in.evalDiscard(st.Init); err != nil {
				return err
			}
		}
		for {
			if st.Cond != nil {
				t, err := in.evalTruth(st.Cond)
				if err != nil {
					return err
				}
				if !t {
					return nil
				}
			}
			if err := in.execStmt(fn, fr, st.Body); err != nil {
				if errors.Is(err, errBreak) {
					return nil
				}
				if !errors.Is(err, errContinue) {
					return err
				}
			}
			if st.Post != nil {
				if err := in.evalDiscard(st.Post); err != nil {
					return err
				}
			}
		}
	case *cparse.DoWhileStmt:
		for {
			if err := in.execStmt(fn, fr, st.Body); err != nil {
				if errors.Is(err, errBreak) {
					return nil
				}
				if !errors.Is(err, errContinue) {
					return err
				}
			}
			t, err := in.evalTruth(st.Cond)
			if err != nil {
				return err
			}
			if !t {
				return nil
			}
		}
	case *cparse.SwitchStmt:
		v, err := in.evalLast(st.Cond)
		if err != nil {
			return err
		}
		cv := v.AsInt()
		match := -1
		deflt := -1
		for i, e := range st.Entries {
			if e.IsDefault && deflt < 0 {
				deflt = i
			}
			for _, val := range e.Vals {
				if val == cv {
					match = i
					break
				}
			}
			if match >= 0 {
				break
			}
		}
		if match < 0 {
			match = deflt
		}
		if match < 0 {
			return nil
		}
		// C fallthrough: run from the matching entry until break.
		for i := match; i < len(st.Entries); i++ {
			for _, s2 := range st.Entries[i].Stmts {
				if err := in.execStmt(fn, fr, s2); err != nil {
					if errors.Is(err, errBreak) {
						return nil
					}
					return err
				}
			}
		}
		return nil
	case *cparse.ReturnStmt:
		if st.E == nil {
			return returnErr{val: target.Datum{Type: in.P.Arch.Void}}
		}
		v, err := in.evalLast(st.E)
		if err != nil {
			return err
		}
		if !ctype.IsVoid(fn.Type.Ret) {
			if v, err = in.env.Ctx.Convert(v, fn.Type.Ret); err != nil {
				return err
			}
		}
		return returnErr{val: target.Datum{Type: v.Type, Bytes: v.Bytes()}}
	case *cparse.BreakStmt:
		return errBreak
	case *cparse.ContinueStmt:
		return errContinue
	}
	return fmt.Errorf("microc: unknown statement %T", s)
}
