package memio_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"duel/internal/memio"
)

// TestReadAllocs checks that a fetch into the caller's buffer that does not
// fault allocates nothing, whether it goes to the substrate (cache off) or
// is served from a resident page (cache on).
func TestReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts: skipped under -race")
	}
	f := newFake(1 << 12)
	for _, cache := range []bool{false, true} {
		a := memio.New(f, memio.Config{Cache: cache})
		var dst [4]byte
		read := func() {
			if err := a.FetchTargetBytes(f.Base+8, dst[:]); err != nil {
				t.Fatal(err)
			}
		}
		read()
		if got := testing.AllocsPerRun(100, read); got != 0 {
			t.Errorf("cache %v: a fetch made %.1f allocations, want 0", cache, got)
		}
	}
}

// TestFetchTakesNoLock checks the lock-free read paths: with the cache off
// a fetch, and with it on a fetch from a resident page, completes while
// the accessor's mutex is held elsewhere; a cache-on fetch that must fill
// a page waits for the mutex.
func TestFetchTakesNoLock(t *testing.T) {
	f := newFake(1 << 12)
	fetch := func(a *memio.Accessor, addr uint64) chan error {
		done := make(chan error, 1)
		go func() {
			var dst [4]byte
			done <- a.FetchTargetBytes(addr, dst[:])
		}()
		return done
	}

	off := memio.New(f, memio.Config{PageSize: 16})
	on := memio.New(f, memio.Config{Cache: true, PageSize: 16})
	var dst [4]byte
	if err := on.FetchTargetBytes(f.Base+8, dst[:]); err != nil { // fills the page
		t.Fatal(err)
	}
	for _, a := range []*memio.Accessor{off, on} {
		unlock := memio.Lock(a)
		select {
		case err := <-fetch(a, f.Base+8):
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("cache %v: fetch waited for the accessor mutex", a.Caching())
		}
		unlock()
	}

	unlock := memio.Lock(on)
	done := fetch(on, f.Base+64)
	select {
	case <-done:
		t.Fatal("cache-on fill ran without the accessor mutex")
	case <-time.After(20 * time.Millisecond):
	}
	unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestCacheFillAllocs checks that once the slots exist a page fill
// allocates nothing: two pages that share a slot are read in turn, so every
// read is a fill.
func TestCacheFillAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts: skipped under -race")
	}
	f := newFake(1 << 12)
	a := memio.New(f, memio.Config{Cache: true, PageSize: 16, MaxPages: 2})
	var dst [4]byte
	i := 0
	read := func() {
		i++
		if err := a.FetchTargetBytes(f.Base+uint64(i%2)*32, dst[:]); err != nil {
			t.Fatal(err)
		}
	}
	read()
	before := a.Stats().Misses
	if got := testing.AllocsPerRun(100, read); got != 0 {
		t.Errorf("a page fill made %.1f allocations, want 0", got)
	}
	if fills := a.Stats().Misses - before; fills != 101 {
		t.Errorf("%d fills in 101 reads of two pages sharing a slot, want 101", fills)
	}
}

// TestFetchLeavesNoStaleByte fetches ranges that span cached pages and the
// substrate into a buffer pre-filled with 0xAA: every byte must come from
// the target. RAM ends inside the third page, so with the cache on a range
// reaching it is copied from cached pages up to there and read uncached
// from there on.
func TestFetchLeavesNoStaleByte(t *testing.T) {
	f := newFake(40)
	for _, cfg := range []memio.Config{{PageSize: 16}, {Cache: true, PageSize: 16}} {
		a := memio.New(f, cfg)
		if _, err := a.GetTargetBytes(f.Base, 16); err != nil { // page 0 cached (cache on)
			t.Fatal(err)
		}
		for _, r := range [][2]int{{8, 24}, {0, 40}, {4, 8}, {20, 20}, {30, 10}} {
			dst := bytes.Repeat([]byte{0xAA}, r[1])
			if err := a.FetchTargetBytes(f.Base+uint64(r[0]), dst); err != nil {
				t.Fatal(err)
			}
			if want := f.RAM[r[0] : r[0]+r[1]]; !bytes.Equal(dst, want) {
				t.Errorf("cache %v: fetch of %d at +%d = %x, want %x", cfg.Cache, r[1], r[0], dst, want)
			}
		}
	}
}

// TestFetchRace runs fetches concurrently with ValidTargetAddr,
// CachedPages, Flush, PutTargetBytes and Stats on one accessor (run under
// -race in CI). With the cache off two goroutines fetch and another
// flushes; with it on, fetches and flushes stay on one goroutine, as one
// evaluation's would. The writer and the readers use disjoint ranges: the
// accessor's own state is what is under test, not the substrate's.
func TestFetchRace(t *testing.T) {
	f := newFake(1 << 12)
	for _, cache := range []bool{false, true} {
		a := memio.New(f, memio.Config{Cache: cache, PageSize: 16, MaxPages: 8})
		var wg sync.WaitGroup
		run := func(fn func(i int)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 300; i++ {
					fn(i)
				}
			}()
		}
		readers := 2
		if cache {
			readers = 1
		}
		for g := 0; g < readers; g++ {
			run(func(i int) {
				off := uint64((i*13 + g*7) % 1024)
				var dst [4]byte
				if err := a.FetchTargetBytes(f.Base+off, dst[:]); err != nil {
					t.Errorf("fetch at +%d: %v", off, err)
				} else if dst[0] != byte(off) {
					t.Errorf("fetch at +%d = %x", off, dst)
				}
				if cache && i%5 == 0 {
					a.Flush()
				}
			})
		}
		run(func(i int) {
			a.ValidTargetAddr(f.Base+uint64(i%64)*16, 64)
			_ = a.CachedPages()
			if !cache && i%5 == 0 {
				a.Flush()
			}
		})
		run(func(i int) {
			if err := a.PutTargetBytes(f.Base+2048+uint64(i%256)*4, []byte{1, 2, 3, 4}); err != nil {
				t.Errorf("write: %v", err)
			}
		})
		run(func(int) { _ = a.Stats() })
		wg.Wait()
		if s := a.Stats(); s.Reads != int64(300*readers) || s.Writes != 300 {
			t.Errorf("cache %v: Reads, Writes = %d, %d; want %d, 300", cache, s.Reads, s.Writes, 300*readers)
		}
	}
}

// TestTransientThenSuccessCounts checks the counters of a read that faults
// transiently twice and then succeeds: one engine read, two transients,
// two retries, three host round-trips and one result's bytes.
func TestTransientThenSuccessCounts(t *testing.T) {
	d, a := newFlaky(2)
	b, err := a.GetTargetBytes(d.Base+4, 4)
	if err != nil || b[0] != d.RAM[4] {
		t.Fatalf("read after 2 transients = %x, %v", b, err)
	}
	s := a.Stats()
	got := [5]int64{s.Reads, s.Transients, s.Retries, s.HostReads, s.HostBytes}
	if want := [5]int64{1, 2, 2, 3, 4}; got != want {
		t.Errorf("Reads, Transients, Retries, HostReads, HostBytes = %v, want %v", got, want)
	}
}
