package memio_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"duel/internal/ctype"
	"duel/internal/dbgif"
	"duel/internal/dbgif/dbgiftest"
	"duel/internal/fakedbg"
	"duel/internal/memio"
)

// newFake returns a flat-RAM debugger (base 0x1000) with ramSize bytes,
// filled with a recognizable pattern.
func newFake(ramSize int) *fakedbg.Fake {
	f := fakedbg.New(ctype.ILP32, ramSize)
	for i := range f.RAM {
		f.RAM[i] = byte(i)
	}
	return f
}

func TestPassThroughNoCache(t *testing.T) {
	f := newFake(1 << 12)
	a := memio.New(f, memio.Config{})
	if a.Caching() {
		t.Fatal("cache on by default")
	}
	b, err := a.GetTargetBytes(f.Base+10, 8)
	if err != nil || !bytes.Equal(b, f.RAM[10:18]) {
		t.Fatalf("read = %x, %v", b, err)
	}
	s := a.Stats()
	if s.Reads != 1 || s.HostReads != 1 || s.ReadBytes != 8 || s.Hits != 0 {
		t.Errorf("stats = %+v", s)
	}
	if a.CachedPages() != 0 {
		t.Errorf("pages cached with cache off")
	}
}

// TestPageBoundarySpan reads a range straddling two pages: both fill, the
// bytes are exact, and a re-read is served entirely from cache.
func TestPageBoundarySpan(t *testing.T) {
	f := newFake(1 << 12)
	a := memio.New(f, memio.Config{Cache: true, PageSize: 16})
	// f.Base = 0x1000 is 16-aligned, so page boundaries fall at base+16k.
	addr := f.Base + 12 // spans [12,20): pages 0 and 1
	b, err := a.GetTargetBytes(addr, 8)
	if err != nil || !bytes.Equal(b, f.RAM[12:20]) {
		t.Fatalf("spanning read = %x, %v", b, err)
	}
	s := a.Stats()
	if s.Misses != 2 || s.HostReads != 2 || s.Hits != 0 {
		t.Fatalf("after fill: %+v", s)
	}
	if a.CachedPages() != 2 {
		t.Fatalf("resident pages = %d", a.CachedPages())
	}
	b, err = a.GetTargetBytes(addr, 8)
	if err != nil || !bytes.Equal(b, f.RAM[12:20]) {
		t.Fatalf("cached read = %x, %v", b, err)
	}
	s = a.Stats()
	if s.Hits != 2 || s.HostReads != 2 {
		t.Errorf("re-read went to host: %+v", s)
	}
	// The cached range is known-valid without asking the host.
	if !a.ValidTargetAddr(addr, 8) {
		t.Error("cached range reported invalid")
	}
}

// TestWriteInvalidation: a write-through store drops the covered pages, so
// the next read refetches the new bytes.
func TestWriteInvalidation(t *testing.T) {
	f := newFake(1 << 12)
	a := memio.New(f, memio.Config{Cache: true, PageSize: 16})
	addr := f.Base + 32
	if _, err := a.GetTargetBytes(addr, 4); err != nil {
		t.Fatal(err)
	}
	if err := a.PutTargetBytes(addr, []byte{0xAA, 0xBB, 0xCC, 0xDD}); err != nil {
		t.Fatal(err)
	}
	if s := a.Stats(); s.Invalidations != 1 || s.Writes != 1 {
		t.Errorf("after write: %+v", s)
	}
	b, err := a.GetTargetBytes(addr, 4)
	if err != nil || !bytes.Equal(b, []byte{0xAA, 0xBB, 0xCC, 0xDD}) {
		t.Errorf("stale read after write: %x, %v", b, err)
	}
	// The write reached the host immediately (write-through, not write-back).
	if !bytes.Equal(f.RAM[32:36], []byte{0xAA, 0xBB, 0xCC, 0xDD}) {
		t.Errorf("host RAM = %x", f.RAM[32:36])
	}
}

// TestCallInvalidation: a target call may mutate arbitrary memory, so it
// flushes the whole cache — even pages the call never touched.
func TestCallInvalidation(t *testing.T) {
	f := newFake(1 << 12)
	a := memio.New(f, memio.Config{Cache: true, PageSize: 16})
	victim := f.Base + 64
	fn := uint64(0x9000)
	f.Funcs[fn] = func([]dbgif.Value) (dbgif.Value, error) {
		f.RAM[64] = 0x5A // mutate behind the cache's back
		return dbgif.Value{Type: f.A.Int, Bytes: []byte{0, 0, 0, 0}}, nil
	}
	if _, err := a.GetTargetBytes(victim, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := a.CallTargetFunc(fn, nil); err != nil {
		t.Fatal(err)
	}
	if a.CachedPages() != 0 {
		t.Errorf("pages survived a target call: %d", a.CachedPages())
	}
	if s := a.Stats(); s.Flushes != 1 {
		t.Errorf("flushes = %+v", s)
	}
	b, err := a.GetTargetBytes(victim, 1)
	if err != nil || b[0] != 0x5A {
		t.Errorf("read after call = %x, %v (stale cache)", b, err)
	}
	// A failing call flushes too: the callee may have stored before dying.
	if _, err := a.GetTargetBytes(victim, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := a.CallTargetFunc(0xdead, nil); err == nil {
		t.Fatal("phantom function callable")
	}
	if a.CachedPages() != 0 {
		t.Errorf("pages survived a failing call: %d", a.CachedPages())
	}
}

// TestAllocInvalidation: allocation carves storage out of already-mapped
// RAM, so pages cached over the region are dropped.
func TestAllocInvalidation(t *testing.T) {
	f := newFake(1 << 12)
	a := memio.New(f, memio.Config{Cache: true, PageSize: 16})
	if _, err := a.GetTargetBytes(f.Base, 64); err != nil {
		t.Fatal(err)
	}
	before := a.CachedPages()
	if _, err := a.AllocTargetSpace(32, 4); err != nil {
		t.Fatal(err)
	}
	if after := a.CachedPages(); after >= before {
		t.Errorf("alloc did not invalidate: %d -> %d pages", before, after)
	}
}

// TestFaultTypes asserts the typed errors on the paper's garbage pointer
// 0x16820 (unmapped) and on a read running off the end of RAM (short).
func TestFaultTypes(t *testing.T) {
	for _, cache := range []bool{false, true} {
		t.Run(fmt.Sprintf("cache=%v", cache), func(t *testing.T) {
			f := newFake(1 << 12) // maps [0x1000, 0x2000): 0x16820 is garbage
			a := memio.New(f, memio.Config{Cache: cache, PageSize: 16})

			_, err := a.GetTargetBytes(0x16820, 48)
			var flt *memio.Fault
			if !errors.As(err, &flt) {
				t.Fatalf("error is %T (%v), not *memio.Fault", err, err)
			}
			if flt.Addr != 0x16820 || flt.Len != 48 || flt.Op != memio.OpRead || flt.Kind != memio.KindUnmapped {
				t.Errorf("fault = %+v", flt)
			}

			// Last mapped byte is 0x1fff: a 4-byte read at 0x1ffe is short.
			_, err = a.GetTargetBytes(0x1ffe, 4)
			if !errors.As(err, &flt) {
				t.Fatalf("short read error is %T", err)
			}
			if flt.Kind != memio.KindShort || flt.Op != memio.OpRead {
				t.Errorf("short-read fault = %+v", flt)
			}

			err = a.PutTargetBytes(0x16820, []byte{1})
			if !errors.As(err, &flt) || flt.Op != memio.OpWrite || flt.Kind != memio.KindUnmapped {
				t.Errorf("write fault = %v", err)
			}
		})
	}
}

// TestPartialPageFallback: a range whose page runs off the end of RAM is
// read uncached and byte-identical to the cache-off behaviour.
func TestPartialPageFallback(t *testing.T) {
	f := newFake(40) // maps [0x1000, 0x1028): last page [0x1020,0x1030) is partial
	a := memio.New(f, memio.Config{Cache: true, PageSize: 16})
	b, err := a.GetTargetBytes(f.Base+36, 4)
	if err != nil || !bytes.Equal(b, f.RAM[36:40]) {
		t.Fatalf("partial-page read = %x, %v", b, err)
	}
	if a.CachedPages() != 0 {
		t.Errorf("partial page was cached")
	}
	// Spanning from a full page into the partial one also works.
	b, err = a.GetTargetBytes(f.Base+12, 20)
	if err != nil || !bytes.Equal(b, f.RAM[12:32]) {
		t.Fatalf("span into partial page = %x, %v", b, err)
	}
}

func TestLRUEviction(t *testing.T) {
	f := newFake(1 << 12)
	a := memio.New(f, memio.Config{Cache: true, PageSize: 16, MaxPages: 2})
	for i := 0; i < 3; i++ { // touch three distinct pages
		if _, err := a.GetTargetBytes(f.Base+uint64(16*i), 1); err != nil {
			t.Fatal(err)
		}
	}
	if a.CachedPages() != 2 {
		t.Fatalf("resident = %d, want 2", a.CachedPages())
	}
	s := a.Stats()
	if s.Evictions != 1 {
		t.Errorf("evictions = %+v", s)
	}
	// Page 0 was the LRU victim: touching it again is a miss; page 2 hits.
	if _, err := a.GetTargetBytes(f.Base+32, 1); err != nil {
		t.Fatal(err)
	}
	if got := a.Stats(); got.Hits != s.Hits+1 {
		t.Errorf("MRU page missed: %+v", got)
	}
	if _, err := a.GetTargetBytes(f.Base, 1); err != nil {
		t.Fatal(err)
	}
	if got := a.Stats(); got.Misses != s.Misses+1 {
		t.Errorf("evicted page hit: %+v", got)
	}
}

// TestConformance runs the narrow-interface battery against a cache-enabled
// Accessor: wrapping a conforming debugger must itself conform.
func TestConformance(t *testing.T) {
	dbgiftest.Run(t, accessorFixture(memio.Config{Cache: true, PageSize: 32, MaxPages: 8}))
}

// TestConformanceUncached runs the battery against the default accessor,
// whose reads take the lock-free path.
func TestConformanceUncached(t *testing.T) {
	dbgiftest.Run(t, accessorFixture(memio.Config{}))
}

// accessorFixture builds the battery's fixture on a fake and wraps it in an
// Accessor configured by cfg.
func accessorFixture(cfg memio.Config) dbgiftest.Fixture {
	f := fakedbg.New(ctype.ILP32, 1<<16)
	a := f.A
	g := f.MustVar("g", a.Int)
	_ = f.PutTargetBytes(g.Addr, []byte{42, 0, 0, 0})
	arr := f.MustVar("arr", a.ArrayOf(a.Int, 4))
	for i := 0; i < 4; i++ {
		_ = f.PutTargetBytes(arr.Addr+uint64(4*i), []byte{byte(i + 1), 0, 0, 0})
	}
	strAddr, _ := f.AllocTargetSpace(3, 1)
	_ = f.PutTargetBytes(strAddr, []byte{'h', 'i', 0})
	msg := f.MustVar("msg", a.Ptr(a.Char))
	_ = f.PutTargetBytes(msg.Addr, []byte{byte(strAddr), byte(strAddr >> 8), byte(strAddr >> 16), byte(strAddr >> 24)})
	pair, _ := a.StructOf("pair",
		ctype.FieldSpec{Name: "x", Type: a.Int},
		ctype.FieldSpec{Name: "y", Type: a.Int},
	)
	f.Structs["pair"] = pair
	pt := f.MustVar("pt", pair)
	_ = f.PutTargetBytes(pt.Addr, []byte{7, 0, 0, 0, 8, 0, 0, 0})
	f.Typedefs["myint"] = a.Int
	f.Enums["color"] = a.EnumOf("color", []ctype.EnumConst{{Name: "RED", Value: 0}, {Name: "BLUE", Value: 6}})
	ft := a.FuncOf(a.Int, []ctype.Type{a.Int}, false)
	fn := dbgif.VarInfo{Name: "twice", Type: ft, Addr: 0x9000}
	f.Vars["twice"] = fn
	f.Funcs[0x9000] = func(args []dbgif.Value) (dbgif.Value, error) {
		v := int64(args[0].Bytes[0]) * 2
		return dbgif.Value{Type: a.Int, Bytes: []byte{byte(v), 0, 0, 0}}, nil
	}

	return dbgiftest.Fixture{
		D: memio.New(f, cfg), G: g, Arr: arr, Msg: msg, Pt: pt, Fn: fn, Pair: pair,
	}
}

// TestConcurrentAccessors hammers one shared cache-enabled Accessor from
// many goroutines (run under -race in CI).
func TestConcurrentAccessors(t *testing.T) {
	f := newFake(1 << 12)
	a := memio.New(f, memio.Config{Cache: true, PageSize: 16, MaxPages: 4})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				off := uint64((g*37 + i*13) % ((1 << 12) - 8))
				b, err := a.GetTargetBytes(f.Base+off, 4)
				if err != nil {
					t.Errorf("read at +%d: %v", off, err)
					return
				}
				if b[0] != byte(off) {
					t.Errorf("read at +%d = %x", off, b)
					return
				}
				a.ValidTargetAddr(f.Base+off, 4)
			}
		}(g)
	}
	wg.Wait()
}

// --- prefetch ---

// TestPrefetchBatchesHostReads: with the cache OFF, one Prefetch pulls a
// whole scan range in a single host crossing, and the scan's reads are then
// served from the resident stripes without further round-trips.
func TestPrefetchBatchesHostReads(t *testing.T) {
	f := newFake(1 << 12)
	a := memio.New(f, memio.Config{PageSize: 16})
	a.Prefetch(f.Base+8, 100) // pages [0,112): 7 pages, one contiguous run

	s := a.Stats()
	if s.Prefetches != 1 || s.PrefetchStripes != 1 || s.PrefetchPages != 7 {
		t.Fatalf("prefetch stats = %+v", s)
	}
	if s.HostReads != 1 {
		t.Fatalf("prefetch issued %d host reads, want 1", s.HostReads)
	}
	if a.CachedPages() != 7 {
		t.Fatalf("resident pages = %d, want 7", a.CachedPages())
	}

	// Scan the prefetched range: engine reads, zero new host reads.
	for off := 8; off < 108; off += 4 {
		b, err := a.GetTargetBytes(f.Base+uint64(off), 4)
		if err != nil || b[0] != byte(off) {
			t.Fatalf("read at +%d = %x, %v", off, b, err)
		}
	}
	if s := a.Stats(); s.HostReads != 1 {
		t.Errorf("scan over prefetched range hit the host: %d reads", s.HostReads)
	}

	// A read outside the stripes is an ordinary uncached host read and must
	// NOT grow the resident set (cache is off).
	if _, err := a.GetTargetBytes(f.Base+512, 4); err != nil {
		t.Fatal(err)
	}
	if s := a.Stats(); s.HostReads != 2 {
		t.Errorf("uncached read host reads = %d, want 2", s.HostReads)
	}
	if a.CachedPages() != 7 {
		t.Errorf("cache-off miss filled a page: %d resident", a.CachedPages())
	}

	// ReleasePrefetched restores the faithful pass-through regime.
	a.ReleasePrefetched()
	if a.CachedPages() != 0 {
		t.Fatalf("release left %d pages", a.CachedPages())
	}
	if _, err := a.GetTargetBytes(f.Base+8, 4); err != nil {
		t.Fatal(err)
	}
	if s := a.Stats(); s.HostReads != 3 {
		t.Errorf("post-release read host reads = %d, want 3", s.HostReads)
	}
}

// TestPrefetchWriteInvalidation: a target write between two prefetched scans
// invalidates the covered stripe pages, and the next scan re-reads them.
func TestPrefetchWriteInvalidation(t *testing.T) {
	f := newFake(1 << 12)
	a := memio.New(f, memio.Config{PageSize: 16})
	a.Prefetch(f.Base, 128) // 8 pages

	if err := a.PutTargetBytes(f.Base+32, []byte{0xAA, 0xBB}); err != nil {
		t.Fatal(err)
	}
	if s := a.Stats(); s.Invalidations != 1 {
		t.Fatalf("write did not invalidate the stripe page: %+v", s)
	}
	b, err := a.GetTargetBytes(f.Base+32, 2)
	if err != nil || b[0] != 0xAA || b[1] != 0xBB {
		t.Fatalf("read after write = %x, %v (stale stripe)", b, err)
	}
	// Re-prefetching makes only the invalidated page absent again: the next
	// prefetch re-reads exactly that hole.
	before := a.Stats().HostReads
	a.Prefetch(f.Base, 128)
	s := a.Stats()
	if s.HostReads != before+1 {
		t.Errorf("re-prefetch issued %d host reads, want 1", s.HostReads-before)
	}
	if a.CachedPages() != 8 {
		t.Errorf("resident pages after re-prefetch = %d, want 8", a.CachedPages())
	}
}

// TestPrefetchAllocInvalidation: an allocation between two prefetched scans
// drops the stripes it overlays, exactly like cached pages.
func TestPrefetchAllocInvalidation(t *testing.T) {
	f := newFake(1 << 12)
	a := memio.New(f, memio.Config{PageSize: 16})
	a.Prefetch(f.Base, 1<<12)
	before := a.CachedPages()
	if before == 0 {
		t.Fatal("nothing prefetched")
	}
	addr, err := a.AllocTargetSpace(32, 4)
	if err != nil {
		t.Fatal(err)
	}
	if after := a.CachedPages(); after >= before {
		t.Fatalf("alloc did not invalidate prefetched pages: %d -> %d", before, after)
	}
	hostBefore := a.Stats().HostReads
	if _, err := a.GetTargetBytes(addr, 32); err != nil {
		t.Fatal(err)
	}
	if got := a.Stats().HostReads; got == hostBefore {
		t.Error("read of allocated storage was served from a stale stripe")
	}
}

// TestPrefetchCallInvalidation: a target call between two prefetched scans
// flushes every stripe — the callee may have written anywhere.
func TestPrefetchCallInvalidation(t *testing.T) {
	f := newFake(1 << 12)
	a := memio.New(f, memio.Config{PageSize: 16})
	fn := uint64(0x9000)
	f.Funcs[fn] = func([]dbgif.Value) (dbgif.Value, error) {
		f.RAM[64] = 0x5A
		return dbgif.Value{Type: f.A.Int, Bytes: []byte{0, 0, 0, 0}}, nil
	}
	a.Prefetch(f.Base, 256)
	if a.CachedPages() == 0 {
		t.Fatal("nothing prefetched")
	}
	if _, err := a.CallTargetFunc(fn, nil); err != nil {
		t.Fatal(err)
	}
	if a.CachedPages() != 0 {
		t.Fatalf("stripes survived a target call: %d", a.CachedPages())
	}
	b, err := a.GetTargetBytes(f.Base+64, 1)
	if err != nil || b[0] != 0x5A {
		t.Errorf("read after call = %x, %v (stale stripe)", b, err)
	}
}

// TestPrefetchSkipsUnmapped: a prefetch running off the end of RAM installs
// only the mapped pages; reads beyond still fault exactly as without it.
func TestPrefetchSkipsUnmapped(t *testing.T) {
	f := newFake(64) // maps [0x1000, 0x1040)
	a := memio.New(f, memio.Config{PageSize: 16})
	a.Prefetch(f.Base, 256)
	if got := a.CachedPages(); got != 4 {
		t.Fatalf("resident pages = %d, want the 4 mapped ones", got)
	}
	if _, err := a.GetTargetBytes(f.Base, 64); err != nil {
		t.Fatal(err)
	}
	_, err := a.GetTargetBytes(f.Base+64, 8)
	var flt *memio.Fault
	if !errors.As(err, &flt) || flt.Kind != memio.KindUnmapped {
		t.Fatalf("read past RAM after prefetch: %v, want unmapped fault", err)
	}
}

// TestPrefetchRespectsLRUBound: prefetching more than MaxPages keeps the
// resident set bounded.
func TestPrefetchRespectsLRUBound(t *testing.T) {
	f := newFake(1 << 12)
	a := memio.New(f, memio.Config{PageSize: 16, MaxPages: 8})
	a.Prefetch(f.Base, 1<<12) // 256 pages' worth
	if got := a.CachedPages(); got > 8 {
		t.Fatalf("resident pages = %d, want <= 8", got)
	}
}

// TestPrefetchCacheOnIntegration: with the cache ON, prefetched pages join
// the ordinary LRU and ReleasePrefetched leaves them alone.
func TestPrefetchCacheOnIntegration(t *testing.T) {
	f := newFake(1 << 12)
	a := memio.New(f, memio.Config{Cache: true, PageSize: 16})
	a.Prefetch(f.Base, 128)
	got := a.CachedPages()
	if got != 8 {
		t.Fatalf("resident pages = %d, want 8", got)
	}
	a.ReleasePrefetched()
	if a.CachedPages() != got {
		t.Error("ReleasePrefetched dropped pages of a cache-on accessor")
	}
	hostBefore := a.Stats().HostReads
	if _, err := a.GetTargetBytes(f.Base, 128); err != nil {
		t.Fatal(err)
	}
	if a.Stats().HostReads != hostBefore {
		t.Error("cache-on read of prefetched range hit the host")
	}
}
