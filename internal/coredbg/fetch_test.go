package coredbg

import (
	"bytes"
	"testing"
)

// TestFetchZeroFillsTail fetches across a segment whose memory size exceeds
// its file bytes (.bss, or a dump the kernel truncated) into a buffer
// pre-filled with 0xAA: the tail must read as zeros, not as whatever the
// caller's buffer held.
func TestFetchZeroFillsTail(t *testing.T) {
	c := &Core{segs: []segment{
		{vaddr: 0x1000, memsz: 16, data: []byte{1, 2, 3, 4}},
		{vaddr: 0x1010, memsz: 8, data: []byte{5, 6, 7, 8, 9, 10, 11, 12}},
	}}
	for _, r := range []struct {
		addr uint64
		want []byte
	}{
		{0x1002, []byte{3, 4, 0, 0, 0, 0}},
		{0x1008, []byte{0, 0, 0, 0, 0, 0, 0, 0, 5, 6}},
		{0x100c, make([]byte, 4)},
	} {
		dst := bytes.Repeat([]byte{0xAA}, len(r.want))
		if err := c.FetchTargetBytes(r.addr, dst); err != nil || !bytes.Equal(dst, r.want) {
			t.Errorf("fetch of %d at 0x%x = %x, %v; want %x", len(dst), r.addr, dst, err, r.want)
		}
	}
}
