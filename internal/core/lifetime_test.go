package core

import (
	"strings"
	"testing"

	"duel/internal/dbgif"
	"duel/internal/duel/ast"
	"duel/internal/duel/parser"
	"duel/internal/duel/value"
)

// TestCachedValuesLifetime checks the values an evaluation builds once and
// reuses (an integer constant's value, a member step's atom) against the
// lifetime of their symbolic handles: two consecutive evaluations of one
// AST on one Env, and an evaluation nested inside a target call (as a
// breakpoint condition runs) that evaluates the same constant and member
// nodes. Every value must render its own text; a handle kept past the end
// of its evaluation panics when rendered.
func TestCachedValuesLifetime(t *testing.T) {
	for _, b := range BackendNames() {
		f := newStructFake(t)
		a := f.A
		f.Vars["cond"] = dbgif.VarInfo{Name: "cond", Type: a.FuncOf(a.Int, nil, false), Addr: 0x9200}
		root, err := parser.Parse("(sp->a + 7, cond(), sp->a + 7)", f)
		if err != nil {
			t.Fatal(err)
		}
		var plus *ast.Node // the first sp->a + 7
		root.Walk(func(k *ast.Node) bool {
			if plus == nil && k.Op == ast.OpPlus {
				plus = k
			}
			return plus == nil
		})
		be, _ := GetBackend(b)
		env := NewEnv(f, DefaultOptions())
		render := func(out *[]string) EmitFn {
			return func(v value.Value) error {
				s, err := env.FormatScalar(v)
				*out = append(*out, env.text(v.Sym)+" = "+s)
				return err
			}
		}
		var nested []string
		f.Funcs[0x9200] = func([]dbgif.Value) (dbgif.Value, error) {
			if err := be.Eval(env, plus, render(&nested)); err != nil {
				return dbgif.Value{}, err
			}
			return dbgif.Value{Type: a.Int, Bytes: value.MakeInt(a.Int, 1).Bytes()}, nil
		}
		for run := 1; run <= 2; run++ {
			nested = nested[:0]
			var got []string
			if err := be.Eval(env, root, render(&got)); err != nil {
				t.Fatalf("[%s] run %d: %v", b, run, err)
			}
			if want := "sp->a+7 = 17|cond() = 1|sp->a+7 = 17"; strings.Join(got, "|") != want {
				t.Errorf("[%s] run %d: %q, want %q", b, run, got, want)
			}
			if want := "sp->a+7 = 17"; strings.Join(nested, "|") != want {
				t.Errorf("[%s] run %d: nested evaluation %q, want %q", b, run, nested, want)
			}
		}
	}
}
