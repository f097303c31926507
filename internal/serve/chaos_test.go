package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"duel"
	"duel/internal/core"
	"duel/internal/faultdbg"
	"duel/internal/mem"
	"duel/internal/memio"
)

// TestServeChaosSoak drives the whole resilience stack at once: three
// targets behind one server, per-session fault plans derived from a pinned
// seed, eight submitters issuing mixed read/write/deadline traffic while
// target "a" storms with transient faults, target "b" drags latency and
// target "c", which also takes every write, faults moderately. The storm
// must degrade "a" through brownout into quarantine, every error must belong
// to the resilience vocabulary (no panics, no mystery failures), Completed
// must never exceed Admitted at any sampled instant, no query may deliver a
// value twice or a complete read fewer values than it has, no write may
// apply more than once, and once the plans' fault budgets are spent the
// target must recover to healthy through the probe path. The whole test
// runs under checkNoLeak: a stranded retry attempt or watchdog is a failure.
func TestServeChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is a long test")
	}
	checkNoLeak(t, func() {
		const seed = 20260808 // pinned: rerun failures byte-for-byte

		fa := buildDebuggee(t)
		fb := buildDebuggee(t)
		fc := buildDebuggee(t)
		const goroutines, perG = 8, 100
		// One counter per query: a write query increments its own slot.
		slots := fc.MustVar("w", fc.A.ArrayOf(fc.A.Int, goroutines*perG))
		srv := New(Config{
			Workers: 8,
			Health:  HealthConfig{ProbeInterval: 25 * time.Millisecond},
		})
		// Target "a": a transient-fault storm. Limit bounds each session's
		// injector so the storm burns itself out mid-soak and recovery is
		// reachable. Target "b": a mild latency drag that slows queries
		// without failing anything. Target "c": every other read or write
		// faults, so about one in sixteen exhausts memio's schedule, often
		// after a read has delivered values or a write has applied.
		planA := faultdbg.Plan{
			Seed:  seed,
			Rates: map[faultdbg.Kind]float64{faultdbg.Transient: 0.95},
			Limit: 120,
		}.DeriveTarget("a")
		planB := faultdbg.Plan{
			Seed:    seed,
			Rates:   map[faultdbg.Kind]float64{faultdbg.Latency: 0.05},
			Latency: 500 * time.Microsecond,
		}.DeriveTarget("b")
		planC := faultdbg.Plan{
			Seed:  seed,
			Rates: map[faultdbg.Kind]float64{faultdbg.Transient: 0.5},
		}.DeriveTarget("c")
		var lanes atomic.Int64
		srv.RegisterFactory("a", func() (*duel.Session, error) {
			return duel.NewSession(faultdbg.New(fa, planA.Derive(lanes.Add(1))))
		})
		srv.RegisterFactory("b", func() (*duel.Session, error) {
			return duel.NewSession(faultdbg.New(fb, planB.Derive(lanes.Add(1))))
		})
		srv.RegisterFactory("c", func() (*duel.Session, error) {
			return duel.NewSession(faultdbg.New(fc, planC.Derive(lanes.Add(1))))
		})

		// The invariant poller: Completed ≤ Admitted at every sampled
		// instant, storm or calm.
		stop := make(chan struct{})
		var violations atomic.Int64
		var poll sync.WaitGroup
		poll.Add(1)
		go func() {
			defer poll.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if s := srv.Stats(); s.Completed > s.Admitted {
					violations.Add(1)
				}
				time.Sleep(500 * time.Microsecond)
			}
		}()

		// allowed reports whether err belongs to the resilience error
		// vocabulary. Everything else — above all *core.PanicError — is a
		// soak failure.
		allowed := func(err error) bool {
			if err == nil {
				return true
			}
			var pe *core.PanicError
			if errors.As(err, &pe) {
				return false
			}
			for _, want := range []error{
				ErrOverloaded, ErrDraining,
				ErrQuarantined, ErrBrownout, ErrDeadlineExceeded,
			} {
				if errors.Is(err, want) {
					return true
				}
			}
			var ce *core.CanceledError
			var te *core.TimeoutError
			var mf *memio.Fault
			return errors.As(err, &ce) || errors.As(err, &te) ||
				errors.As(err, &mf) || memio.IsRetryExhausted(err)
		}

		// Exactly-once emit: a read's values carry distinct symbolic
		// paths, so a value delivered twice (a re-run after partial
		// output) shows as a repeated path, and a complete read of a fixed
		// range must deliver all of it.
		reads := []string{"x[..10] >? 3", "x[..10]", "x[0]", "x[5..8]"}
		complete := map[string]int{"x[..10]": 10, "x[0]": 1, "x[5..8]": 4}
		checkEmits := func(src string, rs []duel.Result, err error) error {
			seen := make(map[string]bool, len(rs))
			for _, r := range rs {
				if seen[r.Sym] {
					return fmt.Errorf("value %s delivered twice", r.Sym)
				}
				seen[r.Sym] = true
			}
			if want, ok := complete[src]; ok && err == nil && len(rs) != want {
				return fmt.Errorf("delivered %d values, want %d", len(rs), want)
			}
			return nil
		}

		// Exactly-once writes: each write query increments its own slot of
		// w on target c, so afterwards a slot reads 1 if its write
		// succeeded, 0 if it was refused before running, at most 1 if it
		// ran and failed, and 2 if any layer ran it twice.
		refused := func(err error) bool {
			for _, r := range []error{
				ErrOverloaded, ErrDraining,
				ErrQuarantined, ErrBrownout, ErrDeadlineExceeded,
			} {
				if errors.Is(err, r) {
					return true
				}
			}
			return false
		}
		const (
			writeRefused = iota + 1
			writeFailed
			writeOK
		)
		writes := make([]int, goroutines*perG) // each goroutine sets only its own slots

		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					target := [...]string{"a", "b", "c"}[(g+i)%3]
					src := reads[i%len(reads)]
					if i%5 == 0 {
						// The read of x[2] after the write can fail with the
						// write applied and nothing emitted: exactly the
						// attempt a serve retry must not re-run.
						target, src = "c", fmt.Sprintf("w[%d]++ + 0*x[2]", g*perG+i)
					}
					var opt SubmitOptions
					if i%7 == 3 {
						opt.Deadline = time.Now().Add(50 * time.Millisecond)
					}
					rs, err := srv.EvalWith(context.Background(), target, src, opt)
					if !allowed(err) {
						t.Errorf("goroutine %d query %d (%s %q): unexpected error class: %v", g, i, target, src, err)
					}
					if i%5 == 0 {
						switch {
						case err == nil:
							writes[g*perG+i] = writeOK
							if len(rs) != 1 || rs[0].Text != "0" {
								t.Errorf("goroutine %d query %d (%s %q): %v, want the slot's old value 0", g, i, target, src, rs)
							}
						case refused(err):
							writes[g*perG+i] = writeRefused
						default:
							writes[g*perG+i] = writeFailed
						}
					} else if eerr := checkEmits(src, rs, err); eerr != nil {
						t.Errorf("goroutine %d query %d (%s %q): %v (err %v)", g, i, target, src, eerr, err)
					}
				}
			}(g)
		}
		wg.Wait()

		// The storm must have driven target "a" through the graded states.
		st := srv.Stats()
		if st.Brownouts == 0 {
			t.Error("storm never browned out a target")
		}
		if st.Quarantined == 0 {
			t.Error("storm never quarantined a target")
		}
		if st.Retried == 0 {
			t.Error("soak issued no serve retries")
		}
		if st.Completed > st.Admitted {
			t.Errorf("post-storm stats violate the invariant: %+v", st)
		}

		// Recovery: the per-session fault budgets (Limit) are spent or
		// dice-beatable; the probe path must re-admit "a" and serve clean
		// reads again, comfortably within a handful of probe intervals.
		recovered := false
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			_, err := srv.Eval(context.Background(), "a", "x[0]")
			h, herr := srv.TargetHealth("a")
			if herr != nil {
				t.Fatal(herr)
			}
			if err == nil && h == TargetHealthy {
				recovered = true
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if !recovered {
			h, _ := srv.TargetHealth("a")
			t.Fatalf("target a never recovered to healthy (stuck at %v) after the storm", h)
		}

		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		ws, err := fc.GetTargetBytes(slots.Addr, 4*len(writes))
		if err != nil {
			t.Fatal(err)
		}
		for k, outcome := range writes {
			n := mem.DecodeInt(ws[4*k : 4*k+4])
			switch {
			case outcome == writeOK && n != 1,
				outcome == writeRefused && n != 0,
				outcome == writeFailed && n > 1,
				outcome == 0 && n != 0:
				t.Errorf("w[%d] = %d after a write with outcome %d (1 refused, 2 failed, 3 ok)", k, n, outcome)
			}
		}
		close(stop)
		poll.Wait()
		if n := violations.Load(); n != 0 {
			t.Fatalf("Completed > Admitted observed %d times during the soak", n)
		}
	})
}
