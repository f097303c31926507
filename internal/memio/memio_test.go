package memio_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
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
	a := memio.New(f, memio.Config{Cache: true, PageSize: 16, MaxPages: 256}) // every page has a slot
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

// TestPartialPageFill reads from a page that is only partly mapped: its
// fill faults, the read falls back to the exact uncached read, and a fault
// comes out exactly as it does with the cache off. The page is not filled
// again in the same generation.
func TestPartialPageFill(t *testing.T) {
	f := newFake(40) // the page [0x1020, 0x1030) is mapped up to 0x1028
	off := memio.New(f, memio.Config{PageSize: 16})
	on := memio.New(f, memio.Config{Cache: true, PageSize: 16})
	for _, r := range []struct {
		addr uint64
		n    int
		kind memio.Kind
	}{{f.Base + 36, 8, memio.KindShort}, {f.Base + 40, 4, memio.KindUnmapped}} {
		_, errOff := off.GetTargetBytes(r.addr, r.n)
		_, errOn := on.GetTargetBytes(r.addr, r.n)
		var fOff, fOn *memio.Fault
		if !errors.As(errOff, &fOff) || !errors.As(errOn, &fOn) {
			t.Fatalf("read of %d at %#x: errors %v and %v, want two *memio.Fault", r.n, r.addr, errOff, errOn)
		}
		same := fOn.Addr == fOff.Addr && fOn.Len == fOff.Len && fOn.Op == fOff.Op && fOn.Kind == fOff.Kind &&
			fOn.Error() == fOff.Error()
		if fOff.Kind != r.kind || !same {
			t.Errorf("read of %d at %#x: cache off %+v, cache on %+v; want both %v", r.n, r.addr, *fOff, *fOn, r.kind)
		}
	}
	before := on.Stats()
	b, err := on.GetTargetBytes(f.Base+32, 8)
	if err != nil || !bytes.Equal(b, f.RAM[32:40]) {
		t.Fatalf("mapped read in the partial page = %x, %v", b, err)
	}
	if s := on.Stats(); s.HostReads != before.HostReads+1 || on.CachedPages() != 0 {
		t.Errorf("mapped read in the partial page: %d host reads, %d pages resident; want 1 exact read, 0 pages",
			s.HostReads-before.HostReads, on.CachedPages())
	}
	on.Flush() // a new generation tries the page again
	before = on.Stats()
	if _, err := on.GetTargetBytes(f.Base+32, 8); err != nil {
		t.Fatal(err)
	}
	if s := on.Stats(); s.HostReads != before.HostReads+2 {
		t.Errorf("after a flush: %d host reads, want a failed fill and an exact read", s.HostReads-before.HostReads)
	}
}

// TestDirectMappedConflict reads two pages that map to the same slot: each
// fill displaces the other page, while a page in another slot stays
// resident throughout.
func TestDirectMappedConflict(t *testing.T) {
	f := newFake(1 << 12)
	a := memio.New(f, memio.Config{Cache: true, PageSize: 16, MaxPages: 2})
	p0, p1, p2 := f.Base, f.Base+16, f.Base+32 // p0 and p2 share slot 0
	read := func(addr uint64) {
		t.Helper()
		b, err := a.GetTargetBytes(addr, 4)
		if err != nil || !bytes.Equal(b, f.RAM[addr-f.Base:addr-f.Base+4]) {
			t.Fatalf("read at %#x = %x, %v", addr, b, err)
		}
	}
	for _, addr := range []uint64{p0, p1, p2, p0, p1} {
		read(addr)
	}
	s := a.Stats()
	got := [4]int64{s.Misses, s.Hits, s.Evictions, s.HostReads}
	// p0, p1, p2 (evicts p0), p0 (evicts p2) miss; the second p1 hits.
	if want := [4]int64{4, 1, 2, 4}; got != want {
		t.Errorf("Misses, Hits, Evictions, HostReads = %v, want %v", got, want)
	}
	if n := a.CachedPages(); n != 2 {
		t.Errorf("resident = %d, want 2", n)
	}
	if !a.ValidTargetAddr(p0, 4) || a.ValidTargetAddr(p2, 4) != f.ValidTargetAddr(p2, 4) {
		t.Error("ValidTargetAddr disagrees after a conflict fill")
	}
}

// TestGenerationWrap takes the generation to its last value and flushes:
// the wrap must not bring back a page filled under generation 1, the
// generation the counter restarts at.
func TestGenerationWrap(t *testing.T) {
	f := newFake(1 << 12)
	a := memio.New(f, memio.Config{Cache: true, PageSize: 16})
	addr := f.Base + 8
	if _, err := a.GetTargetBytes(addr, 1); err != nil { // filled under generation 1
		t.Fatal(err)
	}
	f.RAM[8] = 0xEE // behind the accessor
	memio.SetGeneration(a, math.MaxUint32)
	if n := a.CachedPages(); n != 0 {
		t.Fatalf("%d pages resident after the generation moved on", n)
	}
	a.Flush() // wraps
	if b, err := a.GetTargetBytes(addr, 1); err != nil || b[0] != 0xEE {
		t.Fatalf("read after the wrap = %x, %v; want ee (a page from generation 1 came back)", b, err)
	}
	// The cache works as before in the new cycle.
	f.RAM[8] = 0x11
	a.Flush()
	if b, err := a.GetTargetBytes(addr, 1); err != nil || b[0] != 0x11 {
		t.Fatalf("read after a flush past the wrap = %x, %v; want 11", b, err)
	}
	if _, err := a.GetTargetBytes(addr, 1); err != nil || a.CachedPages() != 1 || a.Stats().Hits != 1 {
		t.Errorf("after the wrap: %d pages resident, stats %+v; want 1 and one hit", a.CachedPages(), a.Stats())
	}
}

// TestFlushDropsEverything: a Flush empties the cache, and one with nothing
// resident is not counted.
func TestFlushDropsEverything(t *testing.T) {
	f := newFake(1 << 12)
	a := memio.New(f, memio.Config{Cache: true, PageSize: 16})
	if _, err := a.GetTargetBytes(f.Base, 64); err != nil {
		t.Fatal(err)
	}
	a.Flush()
	a.Flush()
	if n, s := a.CachedPages(), a.Stats(); n != 0 || s.Flushes != 1 {
		t.Errorf("after two flushes: %d pages resident, %d flushes counted; want 0, 1", n, s.Flushes)
	}
	f.RAM[0] = 0x77
	if b, err := a.GetTargetBytes(f.Base, 1); err != nil || b[0] != 0x77 {
		t.Errorf("read after flush = %x, %v; want 77", b, err)
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

// TestConcurrentAccessors hammers one shared cache-off Accessor from many
// goroutines (run under -race in CI). With the cache on, only one
// evaluation at a time may read through an accessor; TestResidentCountConcurrent
// covers what may run beside it.
func TestConcurrentAccessors(t *testing.T) {
	f := newFake(1 << 12)
	a := memio.New(f, memio.Config{})
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
