// Package fakedbg is a bare in-memory implementation of the narrow
// DUEL-debugger interface, independent of the mini-debugger and the target
// simulator. Its existence demonstrates the paper's portability claim: DUEL
// needs nothing from its host beyond dbgif, so any debugger that can read
// bytes and resolve symbols can host it. Tests use it to exercise the value
// engine and evaluator without the full substrate.
package fakedbg

import (
	"fmt"

	"duel/internal/ctype"
	"duel/internal/dbgif"
)

// Fake is a flat-RAM debugger. The zero value is not usable; call New.
type Fake struct {
	A    *ctype.Arch
	Base uint64
	RAM  []byte
	// ReadOnly freezes the fake into an immutable substrate, the shape of
	// a core dump: PutTargetBytes, AllocTargetSpace and CallTargetFunc
	// fail with dbgif.ErrReadOnlyTarget and the Capabilities interface
	// reports all three off. Setup helpers (DefineVar, direct RAM writes)
	// still work, so a test builds the image writable and then flips the
	// flag — exactly how a process becomes a core.
	ReadOnly bool
	used     int
	Vars     map[string]dbgif.VarInfo
	Typedefs map[string]ctype.Type
	Structs  map[string]*ctype.Struct
	Unions   map[string]*ctype.Struct
	Enums    map[string]*ctype.Enum
	Consts   map[string]int64
	// Funcs maps an entry address to an implementation.
	Funcs map[uint64]func(args []dbgif.Value) (dbgif.Value, error)
	// Frames of locals, innermost first.
	Frames [][]dbgif.VarInfo
}

// New returns a Fake with the given RAM size at base 0x1000.
func New(model ctype.Model, ramSize int) *Fake {
	return &Fake{
		A:        ctype.New(model),
		Base:     0x1000,
		RAM:      make([]byte, ramSize),
		Vars:     map[string]dbgif.VarInfo{},
		Typedefs: map[string]ctype.Type{},
		Structs:  map[string]*ctype.Struct{},
		Unions:   map[string]*ctype.Struct{},
		Enums:    map[string]*ctype.Enum{},
		Consts:   map[string]int64{},
		Funcs:    map[uint64]func([]dbgif.Value) (dbgif.Value, error){},
	}
}

// DefineVar allocates a zeroed variable and registers it. It reports an
// error (rather than panicking) when the RAM is exhausted, so a malformed
// setup cannot kill the process hosting the session.
func (f *Fake) DefineVar(name string, t ctype.Type) (dbgif.VarInfo, error) {
	addr, err := f.alloc(t.Size(), t.Align())
	if err != nil {
		return dbgif.VarInfo{}, fmt.Errorf("fakedbg: defining %q: %w", name, err)
	}
	vi := dbgif.VarInfo{Name: name, Type: t, Addr: addr}
	f.Vars[name] = vi
	return vi, nil
}

// MustVar is DefineVar for tests, in the repo's Must* idiom.
func (f *Fake) MustVar(name string, t ctype.Type) dbgif.VarInfo {
	vi, err := f.DefineVar(name, t)
	if err != nil {
		panic(err)
	}
	return vi
}

// Arch implements dbgif.Debugger.
func (f *Fake) Arch() *ctype.Arch { return f.A }

// GetTargetBytes implements dbgif.Debugger.
func (f *Fake) GetTargetBytes(addr uint64, n int) ([]byte, error) {
	return dbgif.Get(f, addr, n)
}

// FetchTargetBytes implements dbgif.Fetcher.
func (f *Fake) FetchTargetBytes(addr uint64, dst []byte) error {
	if !f.ValidTargetAddr(addr, len(dst)) {
		return fmt.Errorf("fakedbg: invalid read of %d at 0x%x", len(dst), addr)
	}
	copy(dst, f.RAM[addr-f.Base:])
	return nil
}

// PutTargetBytes implements dbgif.Debugger.
func (f *Fake) PutTargetBytes(addr uint64, b []byte) error {
	if f.ReadOnly {
		return fmt.Errorf("fakedbg: write of %d at 0x%x: %w", len(b), addr, dbgif.ErrReadOnlyTarget)
	}
	if !f.ValidTargetAddr(addr, len(b)) {
		return fmt.Errorf("fakedbg: invalid write of %d at 0x%x", len(b), addr)
	}
	copy(f.RAM[addr-f.Base:], b)
	return nil
}

// ValidTargetAddr implements dbgif.Debugger.
func (f *Fake) ValidTargetAddr(addr uint64, n int) bool {
	size := uint64(len(f.RAM))
	return n >= 0 && addr >= f.Base && addr-f.Base <= size && uint64(n) <= size-(addr-f.Base)
}

// AllocTargetSpace implements dbgif.Debugger.
func (f *Fake) AllocTargetSpace(n, align int) (uint64, error) {
	if f.ReadOnly {
		return 0, fmt.Errorf("fakedbg: alloc of %d: %w", n, dbgif.ErrReadOnlyTarget)
	}
	return f.alloc(n, align)
}

// alloc is AllocTargetSpace without the read-only gate, for setup helpers.
func (f *Fake) alloc(n, align int) (uint64, error) {
	if align < 1 {
		align = 1
	}
	start := f.used
	if rem := int((f.Base + uint64(start)) % uint64(align)); rem != 0 {
		start += align - rem
	}
	if start+n > len(f.RAM) {
		return 0, fmt.Errorf("fakedbg: out of RAM")
	}
	f.used = start + n
	return f.Base + uint64(start), nil
}

// CallTargetFunc implements dbgif.Debugger.
func (f *Fake) CallTargetFunc(addr uint64, args []dbgif.Value) (dbgif.Value, error) {
	if f.ReadOnly {
		return dbgif.Value{}, fmt.Errorf("fakedbg: call at 0x%x: %w", addr, dbgif.ErrReadOnlyTarget)
	}
	fn, ok := f.Funcs[addr]
	if !ok {
		return dbgif.Value{}, fmt.Errorf("fakedbg: no function at 0x%x", addr)
	}
	return fn(args)
}

// GetTargetVariable implements dbgif.Debugger.
func (f *Fake) GetTargetVariable(name string) (dbgif.VarInfo, bool) {
	if len(f.Frames) > 0 {
		for _, vi := range f.Frames[0] {
			if vi.Name == name {
				return vi, true
			}
		}
	}
	vi, ok := f.Vars[name]
	return vi, ok
}

// FrameVariable implements dbgif.Debugger.
func (f *Fake) FrameVariable(level int, name string) (dbgif.VarInfo, bool) {
	if level < 0 || level >= len(f.Frames) {
		return dbgif.VarInfo{}, false
	}
	for _, vi := range f.Frames[level] {
		if vi.Name == name {
			return vi, true
		}
	}
	return dbgif.VarInfo{}, false
}

// FrameLocals implements dbgif.Debugger.
func (f *Fake) FrameLocals(level int) ([]dbgif.VarInfo, bool) {
	if level < 0 || level >= len(f.Frames) {
		return nil, false
	}
	return f.Frames[level], true
}

// NumFrames implements dbgif.Debugger.
func (f *Fake) NumFrames() int { return len(f.Frames) }

// LookupTypedef implements dbgif.Debugger.
func (f *Fake) LookupTypedef(name string) (ctype.Type, bool) {
	t, ok := f.Typedefs[name]
	return t, ok
}

// LookupStruct implements dbgif.Debugger.
func (f *Fake) LookupStruct(tag string, union bool) (*ctype.Struct, bool) {
	m := f.Structs
	if union {
		m = f.Unions
	}
	s, ok := m[tag]
	return s, ok
}

// LookupEnum implements dbgif.Debugger.
func (f *Fake) LookupEnum(tag string) (*ctype.Enum, bool) {
	e, ok := f.Enums[tag]
	return e, ok
}

// LookupEnumConst implements dbgif.Debugger.
func (f *Fake) LookupEnumConst(name string) (ctype.Type, int64, bool) {
	for _, e := range f.Enums {
		if v, ok := e.Lookup(name); ok {
			return e, v, true
		}
	}
	if v, ok := f.Consts[name]; ok {
		return f.A.Int, v, true
	}
	return nil, 0, false
}

// CanWrite implements dbgif.Capabilities.
func (f *Fake) CanWrite() bool { return !f.ReadOnly }

// CanAlloc implements dbgif.Capabilities.
func (f *Fake) CanAlloc() bool { return !f.ReadOnly }

// CanCall implements dbgif.Capabilities.
func (f *Fake) CanCall() bool { return !f.ReadOnly }

var (
	_ dbgif.Debugger     = (*Fake)(nil)
	_ dbgif.Fetcher      = (*Fake)(nil)
	_ dbgif.Capabilities = (*Fake)(nil)
)
