package mem

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func newTestSpace(t *testing.T) (*Space, *Segment) {
	t.Helper()
	sp := NewSpace()
	seg, err := sp.AddSegment("data", 0x1000, 4096, true)
	if err != nil {
		t.Fatal(err)
	}
	return sp, seg
}

func TestReadWriteRoundTrip(t *testing.T) {
	sp, _ := newTestSpace(t)
	want := []byte{1, 2, 3, 4, 5}
	if err := sp.Write(0x1000, want); err != nil {
		t.Fatal(err)
	}
	got, err := sp.Read(0x1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestFaults(t *testing.T) {
	sp, _ := newTestSpace(t)
	cases := []struct {
		addr uint64
		n    int
	}{
		{0, 4},             // NULL
		{0xfff, 4},         // just below
		{0x1000 + 4096, 1}, // just past the end
		{0x1000 + 4094, 4}, // straddles the end
		{0x999999, 8},      // far away
	}
	for _, c := range cases {
		if _, err := sp.Read(c.addr, c.n); err == nil {
			t.Errorf("Read(0x%x, %d): no fault", c.addr, c.n)
		} else {
			var f *Fault
			if !errors.As(err, &f) {
				t.Errorf("Read(0x%x): error is %T, want *Fault", c.addr, err)
			}
		}
		if sp.Valid(c.addr, c.n) {
			t.Errorf("Valid(0x%x, %d) = true", c.addr, c.n)
		}
	}
	if !sp.Valid(0x1000, 4096) {
		t.Error("whole segment not valid")
	}
	if sp.Valid(0x1000, -1) {
		t.Error("negative length valid")
	}
}

func TestWriteProtection(t *testing.T) {
	sp := NewSpace()
	if _, err := sp.AddSegment("text", 0x100, 64, false); err != nil {
		t.Fatal(err)
	}
	if err := sp.Write(0x100, []byte{1}); err == nil {
		t.Error("write to read-only segment succeeded")
	}
	if _, err := sp.Read(0x100, 4); err != nil {
		t.Errorf("read from read-only segment failed: %v", err)
	}
}

func TestSegmentOverlapRejected(t *testing.T) {
	sp := NewSpace()
	if _, err := sp.AddSegment("a", 0x1000, 256, true); err != nil {
		t.Fatal(err)
	}
	for _, base := range []uint64{0x1000, 0x10ff, 0xf01} {
		if _, err := sp.AddSegment("b", base, 256, true); err == nil {
			t.Errorf("overlap at 0x%x accepted", base)
		}
	}
	if _, err := sp.AddSegment("c", 0x1100, 256, true); err != nil {
		t.Errorf("adjacent segment rejected: %v", err)
	}
	if _, err := sp.AddSegment("z", 0, 16, true); err == nil {
		t.Error("segment mapping address 0 accepted")
	}
}

func TestAlloc(t *testing.T) {
	_, seg := newTestSpace(t)
	a1, err := seg.Alloc(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != 0x1000 {
		t.Errorf("first alloc at 0x%x", a1)
	}
	a2, err := seg.Alloc(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a2 != 0x1004 {
		t.Errorf("aligned alloc at 0x%x, want 0x1004", a2)
	}
	if _, err := seg.Alloc(8192, 1); err == nil {
		t.Error("oversized alloc succeeded")
	}
	if _, err := seg.Alloc(-1, 1); err == nil {
		t.Error("negative alloc succeeded")
	}
}

func TestReleaseZeroes(t *testing.T) {
	sp, seg := newTestSpace(t)
	mark := seg.Used()
	a, _ := seg.Alloc(4, 1)
	_ = sp.Write(a, []byte{9, 9, 9, 9})
	if err := seg.Release(mark); err != nil {
		t.Fatal(err)
	}
	b, _ := sp.Read(a, 4)
	for _, x := range b {
		if x != 0 {
			t.Fatal("released memory not zeroed")
		}
	}
	if err := seg.Release(100); err == nil {
		t.Error("release past watermark accepted")
	}
}

func TestReadCString(t *testing.T) {
	sp, _ := newTestSpace(t)
	_ = sp.Write(0x1000, append([]byte("hello"), 0))
	s, ok := sp.ReadCString(0x1000, 100)
	if !ok || s != "hello" {
		t.Errorf("ReadCString = %q, %v", s, ok)
	}
	// Unterminated within budget.
	_ = sp.Write(0x1100, []byte{'a', 'b', 'c'})
	s, ok = sp.ReadCString(0x1100, 3)
	if ok || s != "abc" {
		t.Errorf("capped ReadCString = %q, %v", s, ok)
	}
}

// TestReadCStringAcrossSegments reads strings where segments meet: one
// that continues into an adjacent segment, and one that runs into a gap
// before its terminator.
func TestReadCStringAcrossSegments(t *testing.T) {
	sp, _ := newTestSpace(t)
	if _, err := sp.AddSegment("next", 0x2000, 16, true); err != nil {
		t.Fatal(err)
	}
	_ = sp.Write(0x1ffd, []byte("abc"))
	_ = sp.Write(0x2000, append([]byte("de"), 0))
	if s, ok := sp.ReadCString(0x1ffd, 100); !ok || s != "abcde" {
		t.Errorf("string across adjacent segments = %q, %v", s, ok)
	}
	if s, ok := sp.ReadCString(0x1ffd, 4); ok || s != "abcd" {
		t.Errorf("capped string across segments = %q, %v", s, ok)
	}
	for i := uint64(0); i < 16; i++ {
		_ = sp.Write(0x2000+i, []byte{'x'})
	}
	if s, ok := sp.ReadCString(0x200e, 100); ok || s != "xx" {
		t.Errorf("string running into a gap = %q, %v", s, ok)
	}
	if s, ok := sp.ReadCString(0x3000, 100); ok || s != "" {
		t.Errorf("unmapped string = %q, %v", s, ok)
	}
}

// TestFindAgainstLinearScan checks the binary search over segments against
// a linear scan, at every boundary of several segments with gaps.
func TestFindAgainstLinearScan(t *testing.T) {
	sp := NewSpace()
	for _, b := range []uint64{0x9000, 0x1000, 0x5000, 0x5100, 0x3000} {
		if _, err := sp.AddSegment("s", b, 0x100, true); err != nil {
			t.Fatal(err)
		}
	}
	linear := func(addr uint64, n int) *Segment {
		for _, s := range sp.Segments() {
			if n >= 0 && addr >= s.Base && addr < s.End() && addr+uint64(n) <= s.End() {
				return s
			}
		}
		return nil
	}
	for _, s := range sp.Segments() {
		for _, addr := range []uint64{s.Base - 1, s.Base, s.Base + 1, s.End() - 1, s.End(), s.End() + 1} {
			for _, n := range []int{0, 1, 4, 0x100, 0x101} {
				if got, want := sp.find(addr, n), linear(addr, n); got != want {
					t.Errorf("find(0x%x, %d) = %p, want %p", addr, n, got, want)
				}
			}
		}
	}
}

// TestFetchAllocs checks that a fetch into the caller's buffer allocates
// nothing and that reading a C string allocates only the string.
func TestFetchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts: skipped under -race")
	}
	sp, _ := newTestSpace(t)
	_ = sp.Write(0x1000, append([]byte("hello"), 0))
	var dst [8]byte
	if got := testing.AllocsPerRun(100, func() { _ = sp.Fetch(0x1000, dst[:]) }); got != 0 {
		t.Errorf("Fetch: %.1f allocations, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { _, _ = sp.ReadCString(0x1000, 100) }); got > 1 {
		t.Errorf("ReadCString: %.1f allocations, want at most 1 (the string)", got)
	}
}

func TestCodecsRoundTrip(t *testing.T) {
	f := func(v uint64, size uint8) bool {
		n := []int{1, 2, 4, 8}[int(size)%4]
		b := EncodeUint(v, n)
		mask := ^uint64(0)
		if n < 8 {
			mask = uint64(1)<<(8*uint(n)) - 1
		}
		return DecodeUint(b) == v&mask
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeIntSignExtends(t *testing.T) {
	cases := []struct {
		b    []byte
		want int64
	}{
		{[]byte{0xff}, -1},
		{[]byte{0x80}, -128},
		{[]byte{0x7f}, 127},
		{[]byte{0xff, 0xff}, -1},
		{[]byte{0x00, 0x80}, -32768},
		{[]byte{0xff, 0xff, 0xff, 0xff}, -1},
		{[]byte{0xfe, 0xff, 0xff, 0xff}, -2},
	}
	for _, c := range cases {
		if got := DecodeInt(c.b); got != c.want {
			t.Errorf("DecodeInt(% x) = %d, want %d", c.b, got, c.want)
		}
	}
}

func TestFloatCodec(t *testing.T) {
	for _, v := range []float64{0, 1.5, -2.25, math.Pi, math.Inf(1), math.SmallestNonzeroFloat64} {
		if got := DecodeFloat(EncodeFloat(v, 8)); got != v {
			t.Errorf("double round trip %g -> %g", v, got)
		}
	}
	if got := DecodeFloat(EncodeFloat(1.5, 4)); got != 1.5 {
		t.Errorf("float round trip 1.5 -> %g", got)
	}
	f := func(v float64) bool {
		if math.IsNaN(v) {
			return true
		}
		return DecodeFloat(EncodeFloat(v, 8)) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLittleEndianLayout(t *testing.T) {
	b := EncodeUint(0x01020304, 4)
	want := []byte{4, 3, 2, 1}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("EncodeUint little-endian: % x", b)
		}
	}
}

func TestSegmentsListing(t *testing.T) {
	sp := NewSpace()
	_, _ = sp.AddSegment("b", 0x2000, 16, true)
	_, _ = sp.AddSegment("a", 0x1000, 16, true)
	segs := sp.Segments()
	if len(segs) != 2 || segs[0].Name != "a" || segs[1].Name != "b" {
		t.Errorf("segments not in address order: %v", segs)
	}
	if segs[0].End() != 0x1010 {
		t.Errorf("End = 0x%x", segs[0].End())
	}
}
