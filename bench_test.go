package duel_test

// Benchmarks regenerating the paper's evaluation (see EXPERIMENTS.md):
//
//	BenchmarkT1Catalog       — the full example catalog per backend
//	BenchmarkT3Scan*         — x[..N] >? 0, the paper's 5-second example
//	BenchmarkT4Lookup*       — (1..100)+i, the symbol-lookup claim
//	BenchmarkT5Symbolic*     — symbolic-value computation on/off
//	BenchmarkT7Backend*      — push vs machine evaluators
//	BenchmarkT8Cycle*        — cycle-detection ablation on -->
//	BenchmarkParse           — expression compilation cost
//	BenchmarkMicroC          — the debuggee interpreter substrate
//
// Run: go test -bench=. -benchmem

import (
	"fmt"
	"io"
	"testing"

	"duel"
	"duel/internal/core"
	"duel/internal/cparse"
	"duel/internal/debugger"
	"duel/internal/duel/value"
	"duel/internal/microc"
	"duel/internal/scenarios"
	"duel/internal/target"
)

// benchSession builds a session over an int array of size n, with the page
// cache off as in the paper's implementation (one engine read, one host
// round-trip), so the T4, T5 and T7 tables measure the evaluator as the
// paper's did.
func benchSession(b *testing.B, n int, backend string, symbolic bool) *duel.Session {
	b.Helper()
	d, err := scenarios.BuildIntArray(n, func(i int) int64 { return int64(i%7) - 3 })
	if err != nil {
		b.Fatal(err)
	}
	opts := duel.DefaultOptions()
	opts.Backend = backend
	opts.Eval.Symbolic = symbolic
	opts.Eval.MemCache = false
	ses, err := duel.NewSession(d, opts)
	if err != nil {
		b.Fatal(err)
	}
	return ses
}

// benchQuery measures raw engine evaluations of query.
func benchQuery(b *testing.B, ses *duel.Session, query string, perValue bool) {
	b.Helper()
	node, err := ses.Parse(query)
	if err != nil {
		b.Fatal(err)
	}
	raw := func(v value.Value) error { return nil }
	values := 0
	if err := ses.Backend.Eval(ses.Env, node, func(v value.Value) error { values++; return nil }); err != nil {
		b.Fatal(err)
	}
	ses.Env.ResetCounters() // count only the timed evaluations below
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ses.Backend.Eval(ses.Env, node, raw); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if perValue && values > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(values), "ns/value")
	}
}

// --- T1 ---

func BenchmarkT1Catalog(b *testing.B) {
	for _, backend := range core.BackendNames() {
		// cold: scenario build + session + parse + eval per iteration, the
		// original full-pipeline measurement.
		b.Run(backend+"/cold", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, e := range scenarios.Catalog {
					d, _, err := scenarios.Build(e.Scenario, io.Discard)
					if err != nil {
						b.Fatal(err)
					}
					opts := duel.DefaultOptions()
					opts.Backend = backend
					ses, err := duel.NewSession(d, opts)
					if err != nil {
						b.Fatal(err)
					}
					runCatalogEntry(b, ses, e)
				}
			}
		})
		// reeval: long-lived sessions re-evaluating the same queries — the
		// watchpoint/REPL-history load: every pass re-parses and re-walks.
		b.Run(backend+"/reeval", func(b *testing.B) {
			entries := soakEntries()
			targets := map[string]*debugger.Debugger{}
			sessions := make([]*duel.Session, len(entries))
			for i, e := range entries {
				d, ok := targets[e.Scenario]
				if !ok {
					var err error
					d, _, err = scenarios.Build(e.Scenario, io.Discard)
					if err != nil {
						b.Fatal(err)
					}
					targets[e.Scenario] = d
				}
				opts := duel.DefaultOptions()
				opts.Backend = backend
				ses, err := duel.NewSession(d, opts)
				if err != nil {
					b.Fatal(err)
				}
				sessions[i] = ses
			}
			for i, e := range entries {
				runCatalogEntry(b, sessions[i], e) // warm pass
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, e := range entries {
					runCatalogEntry(b, sessions[j], e)
				}
			}
		})
	}
}

// runCatalogEntry evaluates one catalog entry's queries, tolerating the
// expected trailing error of WantErr entries.
func runCatalogEntry(b *testing.B, ses *duel.Session, e scenarios.Entry) {
	b.Helper()
	for qi, q := range e.Queries {
		err := ses.EvalFunc(q, func(duel.Result) error { return nil })
		if err != nil {
			// WantErr entries end in an expected error.
			if len(e.WantErr) > 0 && qi == len(e.Queries)-1 {
				continue
			}
			b.Fatal(err)
		}
	}
}

// benchSessionOpts builds a session over an int array of size n with the
// caller's full option set (used by the memory-cache ablations).
func benchSessionOpts(b *testing.B, n int, opts duel.Options) *duel.Session {
	b.Helper()
	d, err := scenarios.BuildIntArray(n, func(i int) int64 { return int64(i%7) - 3 })
	if err != nil {
		b.Fatal(err)
	}
	ses, err := duel.NewSession(d, opts)
	if err != nil {
		b.Fatal(err)
	}
	return ses
}

// --- T3: the paper's timing example, x[..N] >? 0 ---

func BenchmarkT3Scan(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		for _, cache := range []bool{false, true} {
			b.Run(fmt.Sprintf("push/N=%d/cache=%v", n, cache), func(b *testing.B) {
				opts := duel.DefaultOptions()
				opts.Eval.MemCache = cache
				ses := benchSessionOpts(b, n, opts)
				benchQuery(b, ses, fmt.Sprintf("x[..%d] >? 0", n), true)
				reportMemTraffic(b, ses)
			})
		}
	}
}

// reportMemTraffic attaches the host-boundary traffic of the timed loop as
// per-op metrics (benchQuery resets the counters after its warm-up run, so
// these cover exactly the b.N timed evaluations).
func reportMemTraffic(b *testing.B, ses *duel.Session) {
	c := ses.Counters()
	b.ReportMetric(float64(c.HostReads)/float64(b.N), "hostreads/op")
	b.ReportMetric(float64(c.HostBytes)/float64(b.N), "hostbytes/op")
}

// BenchmarkT3ListWalk is the pointer-chasing counterpart of T3Scan: each
// node costs one pointer load plus one value load, scattered by the
// allocator rather than laid out sequentially.
func BenchmarkT3ListWalk(b *testing.B) {
	for _, cache := range []bool{false, true} {
		b.Run(fmt.Sprintf("push/cache=%v", cache), func(b *testing.B) {
			d, err := scenarios.BuildLongList(1000)
			if err != nil {
				b.Fatal(err)
			}
			opts := duel.DefaultOptions()
			opts.Eval.MemCache = cache
			ses, err := duel.NewSession(d, opts)
			if err != nil {
				b.Fatal(err)
			}
			benchQuery(b, ses, "head-->next->value", false)
			reportMemTraffic(b, ses)
		})
	}
}

// --- T4: symbol lookups, (1..100)+i ---

func BenchmarkT4Lookup(b *testing.B) {
	b.Run("with-lookup", func(b *testing.B) {
		ses := benchSession(b, 16, "push", true)
		benchQuery(b, ses, "(1..100)+i", false)
	})
	b.Run("constant", func(b *testing.B) {
		ses := benchSession(b, 16, "push", true)
		benchQuery(b, ses, "(1..100)+100", false)
	})
}

// --- T5: symbolic-value overhead ---

func BenchmarkT5Symbolic(b *testing.B) {
	for _, symbolic := range []bool{true, false} {
		b.Run(fmt.Sprintf("scan/symbolic=%v", symbolic), func(b *testing.B) {
			ses := benchSession(b, 10000, "push", symbolic)
			benchQuery(b, ses, "x[..10000] >? 0", false)
		})
	}
	for _, symbolic := range []bool{true, false} {
		b.Run(fmt.Sprintf("listwalk/symbolic=%v", symbolic), func(b *testing.B) {
			d, err := scenarios.BuildLongList(1000)
			if err != nil {
				b.Fatal(err)
			}
			opts := duel.DefaultOptions()
			opts.Eval.Symbolic = symbolic
			ses, err := duel.NewSession(d, opts)
			if err != nil {
				b.Fatal(err)
			}
			benchQuery(b, ses, "head-->next->value", false)
		})
	}
}

// --- T7: backend ablation ---

func BenchmarkT7Backend(b *testing.B) {
	queries := []struct{ name, q string }{
		{"scan", "x[..5000] >? 0"},
		{"product", "#/((1..70)*(1..70))"},
		{"reduction", "+/(x[..5000])"},
	}
	for _, backend := range core.BackendNames() {
		for _, q := range queries {
			b.Run(backend+"/"+q.name, func(b *testing.B) {
				ses := benchSession(b, 5000, backend, true)
				benchQuery(b, ses, q.q, false)
			})
		}
	}
}

// --- T8: cycle-detection ablation ---

func BenchmarkT8Cycle(b *testing.B) {
	for _, detect := range []bool{false, true} {
		b.Run(fmt.Sprintf("detect=%v", detect), func(b *testing.B) {
			d, err := scenarios.BuildLongList(500)
			if err != nil {
				b.Fatal(err)
			}
			opts := duel.DefaultOptions()
			opts.Eval.CycleDetect = detect
			ses, err := duel.NewSession(d, opts)
			if err != nil {
				b.Fatal(err)
			}
			benchQuery(b, ses, "#/(head-->next)", false)
		})
	}
}

// --- compilation and substrate ---

func BenchmarkParse(b *testing.B) {
	queries := map[string]string{
		"simple":  "x[..100] >? 0",
		"complex": "int i; L := x => for (i = 0; i < 1024; i++) (L[i] !=? 0) >? 5 <? 10",
	}
	ses := benchSession(b, 16, "push", true)
	for name, q := range queries {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ses.Parse(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMicroC(b *testing.B) {
	b.Run("fib20", func(b *testing.B) {
		p := target.MustNewProcess(target.Config{Model: 0, DataSize: 1 << 16, HeapSize: 1 << 16, StackSize: 1 << 18})
		in, err := microc.Load(p, debugger.New(p), `
int fib(int n) {
	if (n < 2) return n;
	return fib(n-1) + fib(n-2);
}`)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := in.CallInts("fib", 20); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scenario-build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := scenarios.Build(scenarios.Symtab, io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWatchOverhead measures the cost of re-evaluating a DUEL watch
// expression after every statement — the load the paper said would require
// a faster evaluator ("A faster implementation would be required if Duel
// expressions were used in watchpoints and conditional breakpoints").
func BenchmarkWatchOverhead(b *testing.B) {
	const prog = `
int g;
int work(int n) {
	int i;
	for (i = 0; i < n; i = i + 1)
		g = g + i;
	return g;
}
`
	for _, watched := range []bool{false, true} {
		b.Run(fmt.Sprintf("watch=%v", watched), func(b *testing.B) {
			p := target.MustNewProcess(target.Config{Model: 0, DataSize: 1 << 16, HeapSize: 1 << 16, StackSize: 1 << 16})
			d := debugger.New(p)
			in, err := microc.Load(p, d, prog)
			if err != nil {
				b.Fatal(err)
			}
			if watched {
				ses, err := duel.NewSession(d)
				if err != nil {
					b.Fatal(err)
				}
				node, err := ses.Parse("g >? 1000000000")
				if err != nil {
					b.Fatal(err)
				}
				in.Hook = func(fn *cparse.FuncDef, line int, isBlock bool) error {
					if isBlock {
						return nil
					}
					return ses.EvalNode(node, func(duel.Result) error { return nil })
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := in.CallInts("work", 100); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
