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
// RAM, so pages cached over the region are dropped and a read of the new
// storage goes to the host.
func TestAllocInvalidation(t *testing.T) {
	f := newFake(1 << 12)
	a := memio.New(f, memio.Config{Cache: true, PageSize: 16})
	if _, err := a.GetTargetBytes(f.Base, 1<<12); err != nil {
		t.Fatal(err)
	}
	before := a.CachedPages()
	addr, err := a.AllocTargetSpace(32, 4)
	if err != nil {
		t.Fatal(err)
	}
	if after := a.CachedPages(); after >= before {
		t.Errorf("alloc did not invalidate: %d -> %d pages", before, after)
	}
	hostBefore := a.Stats().HostReads
	if _, err := a.GetTargetBytes(addr, 32); err != nil {
		t.Fatal(err)
	}
	if a.Stats().HostReads == hostBefore {
		t.Error("read of allocated storage was served from a stale page")
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
