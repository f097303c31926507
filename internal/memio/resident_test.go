package memio_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"duel/internal/dbgif"
	"duel/internal/memio"
)

// validCounter counts the substrate's ValidTargetAddr calls.
type validCounter struct {
	dbgif.Debugger
	calls atomic.Int64
}

func (v *validCounter) ValidTargetAddr(addr uint64, n int) bool {
	v.calls.Add(1)
	return v.Debugger.ValidTargetAddr(addr, n)
}

// TestResidentCount checks the resident-page count of a cache-on accessor
// after every operation that changes it, and that ValidTargetAddr agrees
// with the substrate throughout: a range inside resident pages is answered
// without asking the substrate, anything else is asked. A cache-off
// accessor holds no page and asks the substrate once per call.
func TestResidentCount(t *testing.T) {
	f := newFake(1 << 12)
	sub := &validCounter{Debugger: f}
	end := f.Base + 1<<12
	probes := []struct {
		addr uint64
		n    int
	}{{f.Base, 4}, {f.Base + 40, 16}, {f.Base + 100, 200}, {end - 4, 4}, {end - 2, 4}, {end, 1}, {0x10, 4}, {f.Base, 0}}
	check := func(a *memio.Accessor, step string, pages int) {
		t.Helper()
		if got := a.CachedPages(); got != pages {
			t.Errorf("%s: %d resident pages, want %d", step, got, pages)
		}
		for _, p := range probes {
			if got, want := a.ValidTargetAddr(p.addr, p.n), f.ValidTargetAddr(p.addr, p.n); got != want {
				t.Errorf("%s: ValidTargetAddr(%#x, %d) = %v, substrate says %v", step, p.addr, p.n, got, want)
			}
		}
	}

	off := memio.New(sub, memio.Config{PageSize: 16})
	check(off, "cache off", 0)
	if _, err := off.GetTargetBytes(f.Base, 64); err != nil {
		t.Fatal(err)
	}
	check(off, "cache-off read", 0)
	before := sub.calls.Load()
	if !off.ValidTargetAddr(f.Base, 4) || sub.calls.Load() != before+1 {
		t.Errorf("cache off: ValidTargetAddr made %d substrate calls, want 1", sub.calls.Load()-before)
	}

	on := memio.New(sub, memio.Config{Cache: true, PageSize: 16, MaxPages: 4})
	check(on, "new", 0)
	for i := 0; i < 3; i++ {
		if _, err := on.GetTargetBytes(f.Base+uint64(16*i), 1); err != nil {
			t.Fatal(err)
		}
		check(on, "cache fill", i+1)
	}
	before = sub.calls.Load()
	if !on.ValidTargetAddr(f.Base+8, 16) || sub.calls.Load() != before {
		t.Errorf("a range inside resident pages asked the substrate")
	}
	if err := on.PutTargetBytes(f.Base+32, []byte{1}); err != nil {
		t.Fatal(err)
	}
	check(on, "write invalidation", 2)
	if _, err := on.GetTargetBytes(f.Base+256, 64); err != nil {
		t.Fatal(err)
	}
	// Pages 16-19 map to slots 0-3: they displace pages 0 and 1, take the
	// slot page 2 was invalidated from, and fill the empty one.
	if on.Stats().Evictions != 2 {
		t.Fatalf("a read of pages 16-19 into 4 slots holding pages 0 and 1 evicted %d pages, want 2: %+v", on.Stats().Evictions, on.Stats())
	}
	check(on, "conflict eviction", 4)
	on.Flush()
	check(on, "flush", 0)
}

// TestResidentCountConcurrent runs ValidTargetAddr, CachedPages and Stats
// on other goroutines while a cache-on accessor's resident set grows by
// reads and shrinks by eviction, writes and flushes, all on one goroutine
// as one evaluation would; run it with -race.
func TestResidentCountConcurrent(t *testing.T) {
	f := newFake(1 << 12)
	a := memio.New(f, memio.Config{Cache: true, PageSize: 16, MaxPages: 32})
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				addr := f.Base + uint64(i%64)*16
				if !a.ValidTargetAddr(addr, 16) {
					t.Errorf("ValidTargetAddr(%#x, 16) = false on mapped memory", addr)
					return
				}
				if a.ValidTargetAddr(f.Base+1<<12, 1) {
					t.Errorf("ValidTargetAddr past the end = true")
					return
				}
				if n := a.CachedPages(); n > 32 {
					t.Errorf("%d resident pages over a bound of 32", n)
					return
				}
				_ = a.Stats()
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if _, err := a.GetTargetBytes(f.Base+uint64(i%64)*16, 1<<9); err != nil {
			t.Error(err)
		}
		if i%2 == 0 {
			if err := a.PutTargetBytes(f.Base+uint64(i%64)*16, []byte{byte(i)}); err != nil {
				t.Error(err)
			}
		} else {
			a.Flush()
		}
	}
	stop.Store(true)
	wg.Wait()
}
