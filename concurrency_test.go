package duel_test

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"duel"
	"duel/internal/core"
	"duel/internal/faultdbg"
	"duel/internal/scenarios"
	"duel/internal/serve"
)

// waitNoLeak asserts the goroutine count settles back to (roughly) its
// pre-test level.
func waitNoLeak(t *testing.T, before int) {
	t.Helper()
	runtime.GC()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSharedSessionConcurrency hammers ONE Session from many goroutines with
// a mix of evaluations, stat reads and alias clears. The session's internal
// locking must keep this free of data races (run under -race); every
// evaluation must either succeed or fail with an ordinary typed error.
func TestSharedSessionConcurrency(t *testing.T) {
	d, err := scenarios.BuildIntArray(64, func(i int) int64 { return int64(i * i) })
	if err != nil {
		t.Fatal(err)
	}
	opts := duel.DefaultOptions()
	opts.Eval.Timeout = 5 * time.Second
	ses := duel.MustNewSession(d, opts)

	queries := []string{
		"x[..10]",
		"x[i..i+5]",
		"(0..9) + 1",
		"x[..64] >? 1000",
		"#/(x[..16])",
	}

	before := runtime.NumGoroutine()
	const goroutines = 8
	const iters = 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := 0; i < iters; i++ {
				switch i % 8 {
				case 6:
					// Stat readers interleave with evaluations.
					_ = ses.Counters()
					_ = ses.LastEvalTime()
				case 7:
					ses.ClearAliases()
				default:
					buf.Reset()
					q := queries[(g+i)%len(queries)]
					if err := ses.Exec(&buf, q); err != nil {
						var pe *core.PanicError
						if errors.As(err, &pe) {
							panic(err)
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	waitNoLeak(t, before)

	// The session is still coherent after the storm.
	res, err := ses.Eval("x[3]")
	if err != nil {
		t.Fatalf("post-storm eval: %v", err)
	}
	if len(res) != 1 || res[0].Line() != "x[3] = 9" {
		t.Fatalf("post-storm result: %+v", res)
	}
}

// TestFaultSoakConcurrent is the soak's concurrency mode: for each
// non-mutating catalog entry, several goroutines evaluate the entry's
// read-only queries against ONE shared target, each through its own
// session and its own fault injector derived (reseeded) from one base
// plan. Backends and error containment vary per lane. Nothing may
// panic, deadlock, or leak goroutines; faults surface as typed errors.
func TestFaultSoakConcurrent(t *testing.T) {
	entries := soakEntries()
	if len(entries) == 0 {
		t.Fatal("no non-mutating catalog entries")
	}
	targets := soakTargets{}
	backends := core.BackendNames()

	// Classify queries by AST: a lane may only run queries that cannot
	// write target memory (string literals, declarations and calls all
	// write), because the shared simulated process is unsynchronized.
	parseSes := func(e scenarios.Entry) *duel.Session {
		return duel.MustNewSession(targets.get(t, e.Scenario))
	}
	readOnly := map[string][]string{}
	for _, e := range entries {
		ses := parseSes(e)
		for _, q := range e.Queries {
			n, err := ses.Parse(q)
			if err != nil || serve.MutatesTarget(n) {
				continue
			}
			readOnly[e.ID] = append(readOnly[e.ID], q)
		}
	}

	before := runtime.NumGoroutine()
	const lanes = 4
	runs := 0
	for idx, e := range entries {
		qs := readOnly[e.ID]
		if len(qs) == 0 {
			continue
		}
		base := faultdbg.Plan{
			Seed: int64(idx + 1),
			Rates: map[faultdbg.Kind]float64{
				faultdbg.Unmapped:  0.01,
				faultdbg.Short:     0.005,
				faultdbg.Transient: 0.02,
				faultdbg.Latency:   0.01,
				faultdbg.CallFail:  0.2,
				faultdbg.CallHang:  0.1,
			},
			Latency: 200 * time.Microsecond,
			Hang:    20 * time.Millisecond,
			Limit:   64,
		}
		d := targets.get(t, e.Scenario)

		var wg sync.WaitGroup
		var mu sync.Mutex
		var firstPanic error
		for g := 0; g < lanes; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				opts := duel.DefaultOptions()
				opts.Backend = backends[g%len(backends)]
				opts.Eval.Timeout = soakTimeout
				opts.Eval.MaxSteps = 1 << 20
				opts.Eval.ErrorValues = g%2 == 0
				inj := faultdbg.New(d, base.Derive(int64(g)))
				ses, err := duel.NewSession(inj, opts)
				if err != nil {
					return
				}
				var buf bytes.Buffer
				for rep := 0; rep < 3; rep++ {
					for _, q := range qs {
						buf.Reset()
						err := ses.Exec(&buf, q)
						var pe *core.PanicError
						if errors.As(err, &pe) {
							mu.Lock()
							if firstPanic == nil {
								firstPanic = err
							}
							mu.Unlock()
						}
					}
				}
			}(g)
		}
		wg.Wait()
		if firstPanic != nil {
			t.Fatalf("%s: internal panic surfaced: %v", e.ID, firstPanic)
		}
		runs += lanes * 3 * len(qs)
	}
	if runs == 0 {
		t.Fatal("concurrent soak executed no queries")
	}
	t.Logf("%d concurrent soak query runs", runs)
	waitNoLeak(t, before)
}
