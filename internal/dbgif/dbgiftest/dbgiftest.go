// Package dbgiftest is a conformance battery for implementations of the
// narrow DUEL-debugger interface. The paper's portability claim — DUEL runs
// wherever the seven interface functions can be provided — is only credible
// if every implementation behaves identically at the interface level; this
// battery is run against both the mini-debugger (internal/debugger) and the
// independent flat-RAM fake (internal/fakedbg).
package dbgiftest

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"duel/internal/ctype"
	"duel/internal/dbgif"
	"duel/internal/faultdbg"
	"duel/internal/memio"
)

// Fixture describes the symbols a conforming test target must expose:
//
//	int    g          = 42
//	int    arr[4]     = {1, 2, 3, 4}
//	char  *msg        -> "hi"
//	struct pair { int x, y; } pt = {7, 8}   (tag "pair" resolvable)
//	typedef int myint
//	enum color { RED = 0, BLUE = 6 }        (tag "color" resolvable)
//	int twice(int)    — callable, returns its argument doubled
//
// Implementations construct the fixture their own way and report the
// locations here.
type Fixture struct {
	D dbgif.Debugger

	G    dbgif.VarInfo
	Arr  dbgif.VarInfo
	Msg  dbgif.VarInfo
	Pt   dbgif.VarInfo
	Fn   dbgif.VarInfo // twice
	Pair *ctype.Struct
}

// Run exercises every method of the interface against the fixture.
//
// Mutating sections (memory writes, allocation, calls) are gated on the
// target's declared dbgif.Capabilities: a read-only substrate such as a core
// dump passes conformance by failing those operations with the typed
// ErrReadOnlyTarget sentinel instead of performing them.
func Run(t *testing.T, f Fixture) {
	t.Helper()
	d := f.D
	a := d.Arch()
	if a == nil {
		t.Fatal("Arch() returned nil")
	}

	t.Run("variables", func(t *testing.T) {
		vi, ok := d.GetTargetVariable("g")
		if !ok || vi.Addr != f.G.Addr || !ctype.Equal(vi.Type, a.Int) {
			t.Errorf("GetTargetVariable(g) = %+v, %v", vi, ok)
		}
		if _, ok := d.GetTargetVariable("nonexistent"); ok {
			t.Error("phantom variable resolved")
		}
		fn, ok := d.GetTargetVariable("twice")
		if !ok || fn.Addr != f.Fn.Addr {
			t.Errorf("function symbol = %+v, %v", fn, ok)
		}
		if _, ok := ctype.Strip(fn.Type).(*ctype.Func); !ok {
			t.Errorf("function symbol type = %s", fn.Type)
		}
	})

	t.Run("memory", func(t *testing.T) {
		b, err := d.GetTargetBytes(f.G.Addr, 4)
		if err != nil {
			t.Fatal(err)
		}
		if b[0] != 42 {
			t.Errorf("g bytes = %v", b)
		}
		if dbgif.CanWrite(d) {
			if err := d.PutTargetBytes(f.G.Addr, []byte{99, 0, 0, 0}); err != nil {
				t.Fatal(err)
			}
			b, _ = d.GetTargetBytes(f.G.Addr, 4)
			if b[0] != 99 {
				t.Error("write not visible")
			}
			// Restore for other subtests.
			_ = d.PutTargetBytes(f.G.Addr, []byte{42, 0, 0, 0})
		} else {
			err := d.PutTargetBytes(f.G.Addr, []byte{99, 0, 0, 0})
			if !errors.Is(err, dbgif.ErrReadOnlyTarget) {
				t.Errorf("write to read-only target: err = %v, want ErrReadOnlyTarget", err)
			}
			b, _ = d.GetTargetBytes(f.G.Addr, 4)
			if b[0] != 42 {
				t.Error("failed write mutated the read-only target")
			}
		}

		if _, err := d.GetTargetBytes(0, 4); err == nil {
			t.Error("NULL read succeeded")
		}
		if d.ValidTargetAddr(0, 1) {
			t.Error("NULL valid")
		}
		if !d.ValidTargetAddr(f.Arr.Addr, 16) {
			t.Error("array address invalid")
		}
		if d.ValidTargetAddr(^uint64(0)-16, 8) {
			t.Error("top-of-space valid")
		}
	})

	t.Run("fetch", func(t *testing.T) { runFetch(t, f) })

	t.Run("strings", func(t *testing.T) {
		// msg is a char*: follow it and read the text.
		pb, err := d.GetTargetBytes(f.Msg.Addr, a.PtrSize)
		if err != nil {
			t.Fatal(err)
		}
		var addr uint64
		for i := a.PtrSize - 1; i >= 0; i-- {
			addr = addr<<8 | uint64(pb[i])
		}
		sb, err := d.GetTargetBytes(addr, 3)
		if err != nil || string(sb[:2]) != "hi" || sb[2] != 0 {
			t.Errorf("msg -> %q, %v", sb, err)
		}
	})

	t.Run("alloc", func(t *testing.T) {
		if !dbgif.CanAlloc(d) {
			_, err := d.AllocTargetSpace(16, 8)
			if !errors.Is(err, dbgif.ErrReadOnlyTarget) {
				t.Errorf("alloc on read-only target: err = %v, want ErrReadOnlyTarget", err)
			}
			return
		}
		p1, err := d.AllocTargetSpace(16, 8)
		if err != nil {
			t.Fatal(err)
		}
		if p1%8 != 0 {
			t.Errorf("allocation at 0x%x not aligned", p1)
		}
		p2, err := d.AllocTargetSpace(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if p2 == p1 {
			t.Error("allocations overlap")
		}
		if !d.ValidTargetAddr(p1, 16) {
			t.Error("allocated space not addressable")
		}
		if err := d.PutTargetBytes(p1, []byte{1, 2, 3}); err != nil {
			t.Errorf("allocated space not writable: %v", err)
		}
	})

	t.Run("call", func(t *testing.T) {
		if !dbgif.CanCall(d) {
			arg := dbgif.Value{Type: a.Int, Bytes: []byte{21, 0, 0, 0}}
			_, err := d.CallTargetFunc(f.Fn.Addr, []dbgif.Value{arg})
			if !errors.Is(err, dbgif.ErrReadOnlyTarget) {
				t.Errorf("call on read-only target: err = %v, want ErrReadOnlyTarget", err)
			}
			return
		}
		arg := dbgif.Value{Type: a.Int, Bytes: []byte{21, 0, 0, 0}}
		out, err := d.CallTargetFunc(f.Fn.Addr, []dbgif.Value{arg})
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Bytes) < 1 || out.Bytes[0] != 42 {
			t.Errorf("twice(21) = %v", out.Bytes)
		}
		if _, err := d.CallTargetFunc(0xdeadbeef, nil); err == nil {
			t.Error("call to bad address succeeded")
		}
	})

	t.Run("types", func(t *testing.T) {
		td, ok := d.LookupTypedef("myint")
		if !ok || !ctype.Equal(td, a.Int) {
			t.Errorf("typedef myint = %v, %v", td, ok)
		}
		if _, ok := d.LookupTypedef("ghost"); ok {
			t.Error("phantom typedef")
		}
		s, ok := d.LookupStruct("pair", false)
		if !ok || s != f.Pair {
			t.Errorf("struct pair = %v, %v", s, ok)
		}
		if _, ok := d.LookupStruct("pair", true); ok {
			t.Error("struct tag leaked into union namespace")
		}
		e, ok := d.LookupEnum("color")
		if !ok {
			t.Fatal("enum color missing")
		}
		if v, ok := e.Lookup("BLUE"); !ok || v != 6 {
			t.Errorf("BLUE = %d, %v", v, ok)
		}
		if _, v, ok := d.LookupEnumConst("BLUE"); !ok || v != 6 {
			t.Errorf("LookupEnumConst(BLUE) = %d, %v", v, ok)
		}
		if _, _, ok := d.LookupEnumConst("MAGENTA"); ok {
			t.Error("phantom enumerator")
		}
	})

	t.Run("frames", func(t *testing.T) {
		// With no frames, frame queries must fail cleanly.
		if n := d.NumFrames(); n != 0 {
			t.Skipf("fixture has %d live frames; frame conformance covered elsewhere", n)
		}
		if _, ok := d.FrameVariable(0, "g"); ok {
			t.Error("frame variable resolved with no frames")
		}
		if _, ok := d.FrameLocals(0); ok {
			t.Error("frame locals resolved with no frames")
		}
	})
}

// runFetch checks that dbgif.Fetch into a caller's buffer agrees with
// GetTargetBytes: the same bytes, the same error for an unmapped or short
// range, success for an empty buffer, and a transient fault retried by
// memio into the very buffer the caller passed.
func runFetch(t *testing.T, f Fixture) {
	d := f.D
	ranges := []struct {
		addr uint64
		n    int
	}{{f.G.Addr, 4}, {f.Arr.Addr, 16}, {f.Arr.Addr + 2, 9}, {f.Pt.Addr, 8}, {f.Msg.Addr, d.Arch().PtrSize}}
	for _, r := range ranges {
		want, err := d.GetTargetBytes(r.addr, r.n)
		if err != nil {
			t.Fatalf("GetTargetBytes(0x%x, %d): %v", r.addr, r.n, err)
		}
		dst := bytes.Repeat([]byte{0xAA}, r.n)
		if err := dbgif.Fetch(d, r.addr, dst); err != nil || !bytes.Equal(dst, want) {
			t.Errorf("Fetch(0x%x, %d) = %x, %v; GetTargetBytes = %x", r.addr, r.n, dst, err, want)
		}
	}

	end := mappedEnd(d, f.G.Addr)
	for _, r := range []struct {
		what string
		addr uint64
		n    int
	}{{"NULL", 0, 4}, {"top of space", ^uint64(0) - 16, 8}, {"short", end - 2, 4}} {
		_, gerr := d.GetTargetBytes(r.addr, r.n)
		ferr := dbgif.Fetch(d, r.addr, make([]byte, r.n))
		if gerr == nil || ferr == nil {
			t.Errorf("%s read: GetTargetBytes err %v, Fetch err %v; want both to fail", r.what, gerr, ferr)
			continue
		}
		if reflect.TypeOf(gerr) != reflect.TypeOf(ferr) || gerr.Error() != ferr.Error() {
			t.Errorf("%s read: GetTargetBytes err %T %q, Fetch err %T %q", r.what, gerr, gerr, ferr, ferr)
		}
	}

	if err := dbgif.Fetch(d, f.G.Addr, nil); err != nil {
		t.Errorf("empty Fetch: %v", err)
	}
	if b, err := d.GetTargetBytes(f.G.Addr, 0); err != nil || len(b) != 0 {
		t.Errorf("empty GetTargetBytes = %x, %v", b, err)
	}

	// One scripted transient: memio retries it, and both attempts fill the
	// caller's dst.
	rec := &fetchRecorder{Debugger: faultdbg.New(d, faultdbg.Plan{Script: []faultdbg.ScriptEntry{{Op: 1, Kind: faultdbg.Transient}}})}
	acc := memio.New(rec, memio.Config{RetryBackoff: time.Microsecond})
	want, _ := d.GetTargetBytes(f.Arr.Addr, 16)
	dst := bytes.Repeat([]byte{0xAA}, 16)
	if err := acc.FetchTargetBytes(f.Arr.Addr, dst); err != nil || !bytes.Equal(dst, want) {
		t.Fatalf("fetch through a transient = %x, %v; want %x", dst, err, want)
	}
	if s := acc.Stats(); s.Retries != 1 || s.HostReads != 2 {
		t.Errorf("Retries, HostReads = %d, %d; want 1, 2", s.Retries, s.HostReads)
	}
	if len(rec.bufs) != 2 || rec.bufs[0] != &dst[0] || rec.bufs[1] != &dst[0] {
		t.Errorf("attempts fetched into %v; want both into the caller's dst %p", rec.bufs, &dst[0])
	}
}

// mappedEnd returns one past the last byte of the mapping that holds addr.
func mappedEnd(d dbgif.Debugger, addr uint64) uint64 {
	n := 1
	for n < 1<<40 && d.ValidTargetAddr(addr, 2*n) {
		n *= 2
	}
	lo, hi := n, 2*n // valid at lo bytes, not at hi
	for hi-lo > 1 {
		if mid := (lo + hi) / 2; d.ValidTargetAddr(addr, mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return addr + uint64(lo)
}

// fetchRecorder records the buffer each fetch through it fills.
type fetchRecorder struct {
	dbgif.Debugger
	bufs []*byte
}

func (r *fetchRecorder) FetchTargetBytes(addr uint64, dst []byte) error {
	r.bufs = append(r.bufs, unsafe.SliceData(dst))
	return dbgif.Fetch(r.Debugger, addr, dst)
}
