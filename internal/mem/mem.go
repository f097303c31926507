// Package mem provides the simulated target address space.
//
// A Space is a sparse little-endian memory image made of non-overlapping
// segments (text, data, heap, stack, ...). All reads and writes are
// bounds-checked; access outside any segment raises a *Fault, which is what
// lets DUEL detect and report "Illegal memory reference" and lets the -->
// expansion operators terminate a traversal at an invalid pointer, as the
// paper describes.
package mem

import (
	"bytes"
	"fmt"
	"math"
	"sort"
)

// Fault describes an invalid memory access.
type Fault struct {
	Addr  uint64
	Len   int
	Write bool
}

func (f *Fault) Error() string {
	op := "read"
	if f.Write {
		op = "write"
	}
	return fmt.Sprintf("invalid memory %s of %d byte(s) at 0x%x", op, f.Len, f.Addr)
}

// Segment is one contiguous, addressable region of the target.
type Segment struct {
	Name     string
	Base     uint64
	Data     []byte
	Writable bool

	used int // bump-allocator watermark
}

// End returns one past the last valid address of the segment.
func (s *Segment) End() uint64 { return s.Base + uint64(len(s.Data)) }

// Alloc reserves n bytes with the given alignment inside the segment and
// returns the address of the reservation.
func (s *Segment) Alloc(n, align int) (uint64, error) {
	if n < 0 || align < 1 {
		return 0, fmt.Errorf("mem: bad allocation request (n=%d, align=%d)", n, align)
	}
	start := s.used
	if rem := int((s.Base + uint64(start)) % uint64(align)); rem != 0 {
		start += align - rem
	}
	if start+n > len(s.Data) {
		return 0, fmt.Errorf("mem: segment %q exhausted (%d of %d bytes used, need %d)", s.Name, s.used, len(s.Data), n)
	}
	s.used = start + n
	return s.Base + uint64(start), nil
}

// Used reports how many bytes of the segment the allocator has consumed.
func (s *Segment) Used() int { return s.used }

// Release rewinds the bump allocator to a previous watermark (as returned by
// Used) and zeroes the freed region, so stale frames never leak into later
// reads. It supports the stack discipline of frame push/pop.
func (s *Segment) Release(mark int) error {
	if mark < 0 || mark > s.used {
		return fmt.Errorf("mem: bad release mark %d (used %d) in segment %q", mark, s.used, s.Name)
	}
	for i := mark; i < s.used; i++ {
		s.Data[i] = 0
	}
	s.used = mark
	return nil
}

// Space is a sparse target address space.
type Space struct {
	segs []*Segment // sorted by Base
}

// NewSpace returns an empty address space.
func NewSpace() *Space { return &Space{} }

// AddSegment creates a segment; it is an error for segments to overlap.
// Address 0 may not be mapped, preserving NULL-pointer faults.
func (sp *Space) AddSegment(name string, base uint64, size int, writable bool) (*Segment, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mem: segment %q has non-positive size %d", name, size)
	}
	if base == 0 {
		return nil, fmt.Errorf("mem: segment %q may not map address 0", name)
	}
	if base+uint64(size) < base {
		return nil, fmt.Errorf("mem: segment %q wraps the address space", name)
	}
	seg := &Segment{Name: name, Base: base, Data: make([]byte, size), Writable: writable}
	for _, s := range sp.segs {
		if base < s.End() && s.Base < seg.End() {
			return nil, fmt.Errorf("mem: segment %q overlaps %q", name, s.Name)
		}
	}
	sp.segs = append(sp.segs, seg)
	sort.Slice(sp.segs, func(i, j int) bool { return sp.segs[i].Base < sp.segs[j].Base })
	return seg, nil
}

// Segments returns the segments in address order.
func (sp *Space) Segments() []*Segment { return sp.segs }

// find returns the segment containing [addr, addr+n), or nil. It is a
// plain binary search for the first segment ending above addr: reads run
// through it once per element, so it takes no closure and keeps no hint (a
// Space is shared by every session reading the target).
func (sp *Space) find(addr uint64, n int) *Segment {
	if n < 0 {
		return nil
	}
	segs := sp.segs
	lo, hi := 0, len(segs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if segs[mid].End() > addr {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(segs) {
		return nil
	}
	s := segs[lo]
	if addr < s.Base || addr+uint64(n) > s.End() || addr+uint64(n) < addr {
		return nil
	}
	return s
}

// Valid reports whether [addr, addr+n) is entirely mapped.
func (sp *Space) Valid(addr uint64, n int) bool { return n >= 0 && sp.find(addr, n) != nil }

// Fetch copies len(dst) bytes starting at addr into dst.
func (sp *Space) Fetch(addr uint64, dst []byte) error {
	s := sp.find(addr, len(dst))
	if s == nil {
		return &Fault{Addr: addr, Len: len(dst)}
	}
	copy(dst, s.Data[addr-s.Base:])
	return nil
}

// Read copies n bytes starting at addr into a fresh slice.
func (sp *Space) Read(addr uint64, n int) ([]byte, error) {
	if n < 0 {
		return nil, &Fault{Addr: addr, Len: n}
	}
	out := make([]byte, n)
	if err := sp.Fetch(addr, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Write copies b into the space at addr.
func (sp *Space) Write(addr uint64, b []byte) error {
	s := sp.find(addr, len(b))
	if s == nil || !s.Writable {
		return &Fault{Addr: addr, Len: len(b), Write: true}
	}
	copy(s.Data[addr-s.Base:], b)
	return nil
}

// ReadCString reads a NUL-terminated string starting at addr, up to max
// bytes. It returns the string (without the NUL) and whether a terminator
// was found within the mapped, in-budget region. It scans segment data in
// place, crossing into an adjacent segment where one begins exactly at the
// end of the last.
func (sp *Space) ReadCString(addr uint64, max int) (string, bool) {
	var out []byte
	for len(out) < max {
		s := sp.find(addr, 1)
		if s == nil {
			return string(out), false
		}
		data := s.Data[addr-s.Base:]
		if len(data) > max-len(out) {
			data = data[:max-len(out)]
		}
		if i := bytes.IndexByte(data, 0); i >= 0 {
			if out == nil {
				return string(data[:i]), true
			}
			return string(append(out, data[:i]...)), true
		}
		out = append(out, data...)
		addr += uint64(len(data))
	}
	return string(out), false
}

// --- little-endian scalar codecs ---

// DecodeUint decodes 1, 2, 4 or 8 little-endian bytes as an unsigned value.
func DecodeUint(b []byte) uint64 {
	var v uint64
	for i := len(b) - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// DecodeInt decodes 1, 2, 4 or 8 little-endian bytes as a sign-extended value.
func DecodeInt(b []byte) int64 {
	u := DecodeUint(b)
	shift := uint(64 - 8*len(b))
	return int64(u<<shift) >> shift
}

// encCacheVals bounds the static encode cache below: the low integers that
// comparison results, truth values, array subscripts and typical debuggee
// payloads encode over and over; the four backing arrays cost ~60 KiB once.
const encCacheVals = 4096

// encCache[n] holds the little-endian encodings of 0..encCacheVals-1 at
// width n, packed back to back, for the widths C integers actually have.
// EncodeUint returns subslices of it, so the encodings are shared — which is
// why EncodeUint's results must be treated as immutable.
var encCache = func() [9][]byte {
	var t [9][]byte
	for _, n := range []int{1, 2, 4, 8} {
		b := make([]byte, encCacheVals*n)
		for v := 0; v < encCacheVals; v++ {
			for i := 0; i < n; i++ {
				b[v*n+i] = byte(uint64(v) >> (8 * i))
			}
		}
		t[n] = b
	}
	return t
}()

// EncodeUint encodes the low 8*n bits of v into n little-endian bytes.
//
// The returned slice may be shared (small values come from a static cache,
// precisely so that the per-element integers of a bulk scan cost no
// allocation); callers must not modify it.
func EncodeUint(v uint64, n int) []byte {
	if v < encCacheVals && n < len(encCache) && encCache[n] != nil {
		off := int(v) * n
		return encCache[n][off : off+n : off+n]
	}
	b := make([]byte, n)
	for i := 0; i < n; i++ {
		b[i] = byte(v >> (8 * i))
	}
	return b
}

// DecodeFloat decodes a 4- or 8-byte little-endian IEEE value.
func DecodeFloat(b []byte) float64 {
	switch len(b) {
	case 4:
		return float64(math.Float32frombits(uint32(DecodeUint(b))))
	case 8:
		return math.Float64frombits(DecodeUint(b))
	}
	panic(fmt.Sprintf("mem: DecodeFloat on %d bytes", len(b)))
}

// EncodeFloat encodes v as a 4- or 8-byte little-endian IEEE value.
func EncodeFloat(v float64, n int) []byte {
	switch n {
	case 4:
		return EncodeUint(uint64(math.Float32bits(float32(v))), 4)
	case 8:
		return EncodeUint(math.Float64bits(v), 8)
	}
	panic(fmt.Sprintf("mem: EncodeFloat to %d bytes", n))
}
