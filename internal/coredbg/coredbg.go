// Package coredbg implements the narrow DUEL debugger interface over a
// post-mortem photograph of a real process: an ELF core dump plus the
// executable it was dumped from. It is the paper's portability claim made
// concrete against real compiler output — memory comes from the core's
// PT_LOAD segments (falling back to the executable's file-backed text and
// rodata), symbols and types come from DWARF, and the stack is unwound
// along the x86-64 frame-pointer chain from the dumped thread registers.
//
// A core dump is a photograph, not a process: the substrate declares itself
// read-only through dbgif.Capabilities, and every mutating operation —
// PutTargetBytes, AllocTargetSpace, CallTargetFunc — fails with the typed
// dbgif.ErrReadOnlyTarget sentinel. Everything read-side (pointer chasing,
// generators, reductions, symbolic diagnoses) works unchanged.
//
// Only little-endian x86-64, non-PIE executables are supported; unwinding
// requires -fno-omit-frame-pointer code (see DESIGN.md §5.6 for the
// residuals: CFI-based unwinding, PIE load bias, live /proc attach).
package coredbg

import (
	"debug/dwarf"
	"debug/elf"
	"fmt"
	"sync"

	"duel/internal/ctype"
	"duel/internal/dbgif"
)

// Core is a read-only dbgif.Debugger over a core dump. It is safe for
// concurrent use: the segment table and symbol index are immutable after
// Open, and the lazy type cache is guarded by mu.
type Core struct {
	arch *ctype.Arch
	segs []segment // core segments first, executable fallback after
	dw   *dwarf.Data
	ix   *index
	regs *prregs

	mu     sync.Mutex
	types  map[dwarf.Offset]ctype.Type
	frames []frameInfo
}

// Open maps a core dump and its executable into a read-only debugger. The
// executable provides DWARF and the file-backed segments the kernel did not
// duplicate into the dump; the core provides the dumped memory image and
// the faulting thread's registers.
func Open(exePath, corePath string) (*Core, error) {
	exeF, err := elf.Open(exePath)
	if err != nil {
		return nil, fmt.Errorf("coredbg: open executable: %w", err)
	}
	defer exeF.Close()
	coreF, err := elf.Open(corePath)
	if err != nil {
		return nil, fmt.Errorf("coredbg: open core: %w", err)
	}
	defer coreF.Close()

	coreSegs, regs, err := loadCore(coreF)
	if err != nil {
		return nil, err
	}
	exeSegs, err := loadExe(exeF)
	if err != nil {
		return nil, err
	}
	dw, err := exeF.DWARF()
	if err != nil {
		return nil, fmt.Errorf("coredbg: no debug info in %s (compile with -g): %w", exePath, err)
	}
	ix, err := buildIndex(dw)
	if err != nil {
		return nil, err
	}
	c := &Core{
		arch:  ctype.New(ctype.LP64),
		segs:  append(coreSegs, exeSegs...),
		dw:    dw,
		ix:    ix,
		regs:  regs,
		types: map[dwarf.Offset]ctype.Type{},
	}
	c.frames = c.unwind()
	return c, nil
}

// Arch implements dbgif.Debugger: a core is always LP64 x86-64 here.
func (c *Core) Arch() *ctype.Arch { return c.arch }

// segFor finds the best segment holding addr: a core segment with dumped
// bytes wins (it has the process's final state), then an executable segment
// with file content, then any covering segment (whose tail reads as zero —
// BSS, or a region the dump truncated).
func (c *Core) segFor(addr uint64) *segment {
	var zeroFill *segment
	for i := range c.segs {
		s := &c.segs[i]
		if !s.covers(addr) {
			continue
		}
		if addr-s.vaddr < uint64(len(s.data)) {
			return s
		}
		if zeroFill == nil {
			zeroFill = s
		}
	}
	return zeroFill
}

// GetTargetBytes implements dbgif.Debugger, serving reads from the
// photographed address space.
func (c *Core) GetTargetBytes(addr uint64, n int) ([]byte, error) {
	return dbgif.Get(c, addr, n)
}

// FetchTargetBytes implements dbgif.Fetcher, spanning segment boundaries if
// needed. A segment's tail past its dumped bytes reads as zero, and since
// dst is the caller's buffer that tail is cleared explicitly.
func (c *Core) FetchTargetBytes(addr uint64, dst []byte) error {
	n := len(dst)
	for done := 0; done < n; {
		a := addr + uint64(done)
		s := c.segFor(a)
		if s == nil {
			return fmt.Errorf("coredbg: unmapped address 0x%x (reading %d bytes at 0x%x)", a, n, addr)
		}
		off := a - s.vaddr
		take := n - done
		if left := s.memsz - off; uint64(take) > left {
			take = int(left)
		}
		part := dst[done : done+take]
		copied := 0
		if off < uint64(len(s.data)) {
			copied = copy(part, s.data[off:])
		}
		clear(part[copied:])
		done += take
	}
	return nil
}

// ValidTargetAddr implements dbgif.Debugger: the range must be fully
// covered by the photograph.
func (c *Core) ValidTargetAddr(addr uint64, n int) bool {
	if n <= 0 {
		return c.segFor(addr) != nil
	}
	end := addr + uint64(n)
	if end < addr { // wrapped: top-of-space is never mapped
		return false
	}
	for a := addr; a < end; {
		s := c.segFor(a)
		if s == nil {
			return false
		}
		a = s.vaddr + s.memsz
	}
	return true
}

// PutTargetBytes implements dbgif.Debugger: a photograph cannot be written.
func (c *Core) PutTargetBytes(addr uint64, b []byte) error {
	return fmt.Errorf("coredbg: cannot write %d bytes at 0x%x into a core dump: %w", len(b), addr, dbgif.ErrReadOnlyTarget)
}

// AllocTargetSpace implements dbgif.Debugger: a photograph cannot grow.
func (c *Core) AllocTargetSpace(n, align int) (uint64, error) {
	return 0, fmt.Errorf("coredbg: cannot allocate %d bytes in a core dump: %w", n, dbgif.ErrReadOnlyTarget)
}

// CallTargetFunc implements dbgif.Debugger: a photograph cannot run.
func (c *Core) CallTargetFunc(addr uint64, args []dbgif.Value) (dbgif.Value, error) {
	return dbgif.Value{}, fmt.Errorf("coredbg: cannot call function at 0x%x in a core dump: %w", addr, dbgif.ErrReadOnlyTarget)
}

// CanWrite implements dbgif.Capabilities.
func (c *Core) CanWrite() bool { return false }

// CanAlloc implements dbgif.Capabilities.
func (c *Core) CanAlloc() bool { return false }

// CanCall implements dbgif.Capabilities.
func (c *Core) CanCall() bool { return false }

// GetTargetVariable implements dbgif.Debugger: locals of the innermost
// frame shadow globals; function names resolve to their entry address with
// function type.
func (c *Core) GetTargetVariable(name string) (dbgif.VarInfo, bool) {
	if v, ok := c.FrameVariable(0, name); ok {
		return v, true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lookupGlobal(name)
}

// lookupGlobal resolves a global variable or function. The caller must hold
// c.mu.
func (c *Core) lookupGlobal(name string) (dbgif.VarInfo, bool) {
	se, ok := c.ix.vars[name]
	if !ok {
		return dbgif.VarInfo{}, false
	}
	if se.fn {
		ft, err := c.funcTypeOf(se.die)
		if err != nil {
			return dbgif.VarInfo{}, false
		}
		return dbgif.VarInfo{Name: name, Type: ft, Addr: se.addr}, true
	}
	t, err := c.varType(se.die)
	if err != nil {
		return dbgif.VarInfo{}, false
	}
	return dbgif.VarInfo{Name: name, Type: t, Addr: se.addr}, true
}

// varType maps the type of the variable DIE at off. The caller must hold
// c.mu.
func (c *Core) varType(off dwarf.Offset) (ctype.Type, error) {
	r := c.dw.Reader()
	r.Seek(off)
	e, err := r.Next()
	if err != nil || e == nil {
		return nil, fmt.Errorf("coredbg: no variable DIE at offset 0x%x", off)
	}
	ref, ok := e.Val(dwarf.AttrType).(dwarf.Offset)
	if !ok {
		return nil, fmt.Errorf("coredbg: variable DIE at 0x%x has no type", off)
	}
	return c.typeAt(ref)
}

// FrameVariable implements dbgif.Debugger.
func (c *Core) FrameVariable(level int, name string) (dbgif.VarInfo, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if level < 0 || level >= len(c.frames) {
		return dbgif.VarInfo{}, false
	}
	for _, v := range c.frameLocals(&c.frames[level]) {
		if v.Name == name {
			return v, true
		}
	}
	return dbgif.VarInfo{}, false
}

// FrameLocals implements dbgif.Debugger.
func (c *Core) FrameLocals(level int) ([]dbgif.VarInfo, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if level < 0 || level >= len(c.frames) {
		return nil, false
	}
	ls := c.frameLocals(&c.frames[level])
	out := make([]dbgif.VarInfo, len(ls))
	copy(out, ls)
	return out, true
}

// NumFrames implements dbgif.Debugger.
func (c *Core) NumFrames() int { return len(c.frames) }

// FrameFunc reports the name of the function owning frame level, for
// backtrace-style display by front ends.
func (c *Core) FrameFunc(level int) (string, bool) {
	if level < 0 || level >= len(c.frames) {
		return "", false
	}
	return c.frames[level].fn.name, true
}

// LookupTypedef implements dbgif.Debugger.
func (c *Core) LookupTypedef(name string) (ctype.Type, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	off, ok := c.ix.typedefs[name]
	if !ok {
		return nil, false
	}
	t, err := c.typeAt(off)
	if err != nil {
		return nil, false
	}
	if td, ok := t.(*ctype.Typedef); ok {
		return td.Under, true
	}
	return t, true
}

// LookupStruct implements dbgif.Debugger. Repeated lookups return the
// identical *ctype.Struct: the evaluator compares struct types by identity.
func (c *Core) LookupStruct(tag string, union bool) (*ctype.Struct, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tbl := c.ix.structs
	if union {
		tbl = c.ix.unions
	}
	off, ok := tbl[tag]
	if !ok {
		return nil, false
	}
	t, err := c.typeAt(off)
	if err != nil {
		return nil, false
	}
	s, ok := t.(*ctype.Struct)
	return s, ok
}

// LookupEnum implements dbgif.Debugger.
func (c *Core) LookupEnum(tag string) (*ctype.Enum, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	off, ok := c.ix.enums[tag]
	if !ok {
		return nil, false
	}
	t, err := c.typeAt(off)
	if err != nil {
		return nil, false
	}
	e, ok := t.(*ctype.Enum)
	return e, ok
}

// LookupEnumConst implements dbgif.Debugger.
func (c *Core) LookupEnumConst(name string) (ctype.Type, int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ce, ok := c.ix.enumConsts[name]
	if !ok {
		return nil, 0, false
	}
	t, err := c.typeAt(ce.enum)
	if err != nil {
		return nil, 0, false
	}
	return t, ce.val, true
}

var (
	_ dbgif.Debugger     = (*Core)(nil)
	_ dbgif.Fetcher      = (*Core)(nil)
	_ dbgif.Capabilities = (*Core)(nil)
)
