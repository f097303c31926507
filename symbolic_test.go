package duel_test

import (
	"runtime"
	"strings"
	"testing"

	"duel"
	"duel/internal/core"
	"duel/internal/dbgif"
	"duel/internal/duel/parser"
	"duel/internal/duel/value"
	"duel/internal/scenarios"
)

// TestWithSymPassThrough pins when a with expression keeps its inner
// value's symbolic text instead of composing "base.inner": exactly when the
// two texts are equal, as for "_", so "x[3].(x[3])" prints "x[3]" although
// the inner x[3] is a derivation of its own. Both drivers must agree.
func TestWithSymPassThrough(t *testing.T) {
	cases := []struct {
		query string
		want  []string // the output's lines
	}{
		{"x[3].(x[3])", []string{"x[3] = -1"}},
		{"x[3].(_)", []string{"x[3] = -1"}},
		{"x[3].(x[2])", []string{"x[3].x[2] = 4"}},
		{"head->(head)", []string{"head = 0x104c"}},
		{"head-->next[[2]]", []string{"head->next->next = 0x103c"}},
		{"head-->next->(value ==? 7)", []string{"head->next->value = 7", "head-->next[[3]]->value = 7"}},
	}
	queries := make([]string, len(cases))
	for i, c := range cases {
		queries[i] = c.query
	}
	for _, backend := range []string{"push", "machine"} {
		out := execQueries(t, backend, buildFakeDebuggee(t), queries)
		for i, c := range cases {
			lines := strings.Split(strings.TrimSuffix(out[i], "\n"), "\n")
			if len(lines) != len(c.want) {
				t.Errorf("[%s] %s:\n%s\nwant %d lines %q", backend, c.query, indent(out[i]), len(c.want), c.want)
				continue
			}
			for j, w := range c.want {
				if lines[j] != w {
					t.Errorf("[%s] %s: line %d = %q, want %q", backend, c.query, j, lines[j], w)
				}
			}
		}
	}
}

// TestSymRendersPerPrintedValue checks that symbolic text is rendered
// once per printed value, however many derivations the evaluation records:
// "x[i] is computed 1000 times, even though it might be printed only once"
// now holds for the derivation steps (SymOps) but not for the text.
func TestSymRendersPerPrintedValue(t *testing.T) {
	for _, backend := range []string{"push", "machine"} {
		opts := duel.DefaultOptions()
		opts.Backend = backend
		for _, c := range []struct {
			query         string
			lines, symops int64
		}{
			{"x[..10] >? 4", 4, 32},
			{"#/(head-->next->value >? 1)", 1, 27},
		} {
			ses, err := duel.NewSession(buildFakeDebuggee(t), opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := ses.Eval(c.query)
			if err != nil {
				t.Fatal(err)
			}
			got := ses.Counters()
			if int64(len(res)) != c.lines || got.SymRenders != c.lines || got.SymOps != c.symops {
				t.Errorf("[%s] %s: %d lines, %d renders, %d symops; want %d, %d, %d",
					backend, c.query, len(res), got.SymRenders, got.SymOps, c.lines, c.lines, c.symops)
			}
		}
	}
}

// TestExpandLinearInDepth checks that a --> walk costs the same per node at
// any depth, on both drivers: a child's path is one derivation step from
// its parent's, not a copy of the parent's step list. The allocation per
// visited node of a 16,000-node list walk must stay within 2x of a
// 1,000-node one (copying the path made it about 16x), and a self-loop
// "head-->_" must reach the MaxExpand bound of 2^18 visits while
// allocating under 100 MB (its path text is bounded, not the walk).
func TestExpandLinearInDepth(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation measurements: skipped under -race")
	}
	for _, backend := range []string{"push", "machine"} {
		b, err := core.GetBackend(backend)
		if err != nil {
			t.Fatal(err)
		}
		perNode := func(n int) float64 {
			d, err := scenarios.BuildLongList(n)
			if err != nil {
				t.Fatal(err)
			}
			count := int64(-1)
			bytes := allocBytes(t, d, b, "#/(head-->next->value)", core.DefaultOptions(), func(v value.Value) {
				count = v.AsInt()
			})
			if count != int64(n) {
				t.Fatalf("[%s] #/(head-->next->value) on %d nodes = %d", backend, n, count)
			}
			return float64(bytes) / float64(n)
		}
		short, long := perNode(1000), perNode(16000)
		t.Logf("[%s] bytes allocated per visited node: %.0f at 1,000 nodes, %.0f at 16,000", backend, short, long)
		if long > 2*short {
			t.Errorf("[%s] a 16,000-node walk allocates %.0f bytes per node, more than twice the %.0f of a 1,000-node walk", backend, long, short)
		}

		d, err := scenarios.BuildLongList(1)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions()
		opts.MaxExpand = 1 << 18
		opts.CycleDetect = false
		var evalErr error
		bytes := allocBytes(t, d, b, "head-->_", opts, nil, &evalErr)
		t.Logf("[%s] head-->_ to the MaxExpand bound: %.1f MB allocated", backend, float64(bytes)/1e6)
		if evalErr == nil || !strings.Contains(evalErr.Error(), "exceeded 262144 nodes") {
			t.Errorf("[%s] head-->_: error %v, want the expansion bound", backend, evalErr)
		}
		if bytes > 100<<20 {
			t.Errorf("[%s] head-->_ allocated %d bytes before the expansion bound, want < 100 MB", backend, bytes)
		}
	}
}

// allocBytes evaluates query on d with backend b and returns the bytes the
// evaluation allocated. Without errp, an evaluation error fails the test.
func allocBytes(t *testing.T, d dbgif.Debugger, b core.Backend, query string, opts core.Options, each func(value.Value), errp ...*error) uint64 {
	t.Helper()
	n, err := parser.Parse(query, d)
	if err != nil {
		t.Fatal(err)
	}
	env := core.NewEnv(d, opts)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	err = core.Eval(env, b, n, func(v value.Value) error {
		if each != nil {
			each(v)
		}
		return nil
	})
	runtime.ReadMemStats(&after)
	if len(errp) > 0 {
		*errp[0] = err
	} else if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	return after.TotalAlloc - before.TotalAlloc
}
