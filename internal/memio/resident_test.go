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

// TestResidentCount checks the resident-page count that ValidTargetAddr
// reads without the accessor's lock after every operation that changes the
// resident set: it must equal CachedPages, ValidTargetAddr must agree with
// the substrate, and a range inside resident pages must be answered
// without asking the substrate.
func TestResidentCount(t *testing.T) {
	f := newFake(1 << 12)
	sub := &validCounter{Debugger: f}
	end := f.Base + 1<<12
	probes := []struct {
		addr uint64
		n    int
	}{{f.Base, 4}, {f.Base + 40, 16}, {f.Base + 100, 200}, {end - 4, 4}, {end - 2, 4}, {end, 1}, {0x10, 4}, {f.Base, 0}}
	check := func(a *memio.Accessor, step string) {
		t.Helper()
		if got, want := memio.Resident(a), a.CachedPages(); got != want {
			t.Errorf("%s: resident count %d, CachedPages %d", step, got, want)
		}
		for _, p := range probes {
			if got, want := a.ValidTargetAddr(p.addr, p.n), f.ValidTargetAddr(p.addr, p.n); got != want {
				t.Errorf("%s: ValidTargetAddr(%#x, %d) = %v, substrate says %v", step, p.addr, p.n, got, want)
			}
		}
	}

	off := memio.New(sub, memio.Config{PageSize: 16})
	check(off, "new")
	off.Prefetch(f.Base, 128) // 8 pages
	check(off, "prefetch")
	before := sub.calls.Load()
	if !off.ValidTargetAddr(f.Base+8, 16) || sub.calls.Load() != before {
		t.Errorf("a range inside prefetched pages asked the substrate")
	}
	if err := off.PutTargetBytes(f.Base+32, []byte{1}); err != nil {
		t.Fatal(err)
	}
	check(off, "write invalidation")
	off.ReleasePrefetched()
	check(off, "release")
	off.BeginBatch()
	off.Prefetch(f.Base, 64)
	off.ReleasePrefetched() // deferred by the pin
	check(off, "release inside a batch")
	off.EndBatch()
	check(off, "end batch")
	before = sub.calls.Load()
	if !off.ValidTargetAddr(f.Base, 4) || sub.calls.Load() != before+1 {
		t.Errorf("with no page resident, ValidTargetAddr made %d substrate calls, want 1", sub.calls.Load()-before)
	}

	on := memio.New(sub, memio.Config{Cache: true, PageSize: 16, MaxPages: 2})
	for i := 0; i < 3; i++ {
		if _, err := on.GetTargetBytes(f.Base+uint64(16*i), 1); err != nil {
			t.Fatal(err)
		}
		check(on, "cache fill")
	}
	if on.Stats().Evictions != 1 {
		t.Fatalf("no LRU eviction: %+v", on.Stats())
	}
	check(on, "LRU eviction")
	on.Prefetch(f.Base+256, 64) // 4 pages over a bound of 2
	check(on, "prefetch past the bound")
	on.Flush()
	check(on, "flush")
}

// TestResidentCountConcurrent runs ValidTargetAddr and Stats on other
// goroutines while the resident set grows and shrinks; run it with -race.
func TestResidentCountConcurrent(t *testing.T) {
	f := newFake(1 << 12)
	a := memio.New(f, memio.Config{PageSize: 16})
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
				_ = a.Stats()
			}
		}()
	}
	for i := 0; i < 200; i++ {
		a.Prefetch(f.Base, 1<<10)
		if _, err := a.GetTargetBytes(f.Base+uint64(i%64)*16, 4); err != nil {
			t.Error(err)
		}
		if i%2 == 0 {
			a.ReleasePrefetched()
		} else {
			a.Flush()
		}
	}
	stop.Store(true)
	wg.Wait()
}
