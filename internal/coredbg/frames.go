package coredbg

import (
	"debug/dwarf"

	"duel/internal/dbgif"
)

// frameInfo is one unwound stack frame: the pc inside its function, the
// frame-pointer value its locals are addressed from, and the owning
// subprogram DIE.
type frameInfo struct {
	pc     uint64
	rbp    uint64
	fn     funcRange
	locals []dbgif.VarInfo // resolved lazily, nil until first use
	done   bool
}

// maxFrames bounds the walk against a corrupted frame-pointer chain.
const maxFrames = 256

// unwind walks the x86-64 frame-pointer chain from the dumped registers.
// This is the classic -fno-omit-frame-pointer discipline: the saved rbp
// sits at [rbp], the return address at [rbp+8], and a zero saved rbp
// terminates the chain (the start files zero it before calling main). The
// walk stops at the first pc that no known subprogram covers, at a
// non-monotonic frame pointer, or at unreadable stack — a photograph can be
// torn, and a short backtrace beats a wrong one.
func (c *Core) unwind() []frameInfo {
	if c.regs == nil {
		return nil
	}
	var frames []frameInfo
	pc, rbp := c.regs.rip, c.regs.rbp
	for len(frames) < maxFrames {
		fn, ok := c.funcAt(pc)
		if !ok {
			break
		}
		frames = append(frames, frameInfo{pc: pc, rbp: rbp, fn: fn})
		saved, err1 := c.readUint64(rbp)
		ret, err2 := c.readUint64(rbp + 8)
		if err1 != nil || err2 != nil || saved == 0 || ret == 0 || saved <= rbp {
			break
		}
		// The return address points after the call; step back inside it so
		// range attribution lands in the calling function.
		pc, rbp = ret-1, saved
	}
	return frames
}

// funcAt finds the subprogram whose pc range covers pc.
func (c *Core) funcAt(pc uint64) (funcRange, bool) {
	for _, f := range c.ix.funcs {
		if pc >= f.low && pc < f.high {
			return f, true
		}
	}
	return funcRange{}, false
}

// DWARF location/frame-base opcodes the unwinder understands.
const (
	opAddr         = 0x03
	opFbreg        = 0x91
	opReg6         = 0x56 // rbp
	opCallFrameCFA = 0x9c
)

// frameLocals resolves the locals of frame f on first use: the formal
// parameters and variables of its subprogram (recursing through lexical
// blocks) whose locations are frame-base-relative, rebased onto the frame's
// dumped rbp. The caller must hold c.mu.
func (c *Core) frameLocals(f *frameInfo) []dbgif.VarInfo {
	if f.done {
		return f.locals
	}
	f.done = true

	r := c.dw.Reader()
	r.Seek(f.fn.die)
	e, err := r.Next()
	if err != nil || e == nil || !e.Children {
		return nil
	}

	// The frame base is where DW_OP_fbreg offsets anchor. gcc emits
	// DW_OP_call_frame_cfa, and under the frame-pointer discipline the CFA
	// is rbp+16 (saved rbp and return address above it); older styles name
	// rbp directly.
	var base uint64
	switch fb, _ := e.Val(dwarf.AttrFrameBase).([]byte); {
	case len(fb) == 1 && fb[0] == opCallFrameCFA:
		base = f.rbp + 16
	case len(fb) >= 1 && fb[0] == opReg6:
		base = f.rbp
	default:
		return nil // unknown frame base: no locals rather than wrong ones
	}

	depth := 0
	for {
		kid, err := r.Next()
		if err != nil || kid == nil {
			break
		}
		if kid.Tag == 0 {
			if depth == 0 {
				break
			}
			depth--
			continue
		}
		switch kid.Tag {
		case dwarf.TagFormalParameter, dwarf.TagVariable:
			name, _ := kid.Val(dwarf.AttrName).(string)
			loc, _ := kid.Val(dwarf.AttrLocation).([]byte)
			ref, okRef := kid.Val(dwarf.AttrType).(dwarf.Offset)
			if name == "" || !okRef || len(loc) < 2 || loc[0] != opFbreg {
				break
			}
			off, n := sleb128(loc[1:])
			if n == 0 {
				break
			}
			t, err := c.typeAt(ref)
			if err != nil {
				break // untranslatable type: skip the local, keep the frame
			}
			f.locals = append(f.locals, dbgif.VarInfo{Name: name, Type: t, Addr: base + uint64(off)})
		case dwarf.TagLexDwarfBlock:
			if kid.Children {
				depth++
			}
			continue
		}
		if kid.Children {
			r.SkipChildren()
		}
	}
	return f.locals
}

func (c *Core) readUint64(addr uint64) (uint64, error) {
	var b [8]byte
	if err := c.FetchTargetBytes(addr, b[:]); err != nil {
		return 0, err
	}
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v, nil
}
