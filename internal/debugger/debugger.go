// Package debugger is the mini source-level debugger that hosts DUEL: the
// gdb substitute. It loads micro-C programs into a simulated target process,
// runs them with breakpoints and stepping, and exposes the process to DUEL
// through the paper's narrow interface (internal/dbgif). The interface
// module below is the analogue of the paper's ~400-line gdb glue: it
// converts between the target's datum type and DUEL's value type, resolves
// symbols frame-first, and forwards memory and call requests.
package debugger

import (
	"fmt"

	"duel/internal/ctype"
	"duel/internal/dbgif"
	"duel/internal/target"
)

// Debugger adapts a target.Process to dbgif.Debugger.
type Debugger struct {
	P *target.Process
	// SelectedFrame is the frame whose locals shadow globals in symbol
	// resolution (0 = innermost), like gdb's "frame" selection.
	SelectedFrame int
}

// New returns a Debugger over p.
func New(p *target.Process) *Debugger { return &Debugger{P: p} }

// Arch implements dbgif.Debugger.
func (d *Debugger) Arch() *ctype.Arch { return d.P.Arch }

// GetTargetBytes implements dbgif.Debugger (duel_get_target_bytes).
func (d *Debugger) GetTargetBytes(addr uint64, n int) ([]byte, error) {
	return d.P.Space.Read(addr, n)
}

// FetchTargetBytes implements dbgif.Fetcher: duel_get_target_bytes into
// the caller's buffer.
func (d *Debugger) FetchTargetBytes(addr uint64, dst []byte) error {
	return d.P.Space.Fetch(addr, dst)
}

// PutTargetBytes implements dbgif.Debugger (duel_put_target_bytes).
func (d *Debugger) PutTargetBytes(addr uint64, b []byte) error {
	return d.P.Space.Write(addr, b)
}

// ValidTargetAddr implements dbgif.Debugger.
func (d *Debugger) ValidTargetAddr(addr uint64, n int) bool {
	return d.P.Space.Valid(addr, n)
}

// AllocTargetSpace implements dbgif.Debugger (duel_alloc_target_space).
func (d *Debugger) AllocTargetSpace(n, align int) (uint64, error) {
	return d.P.Alloc(n, align)
}

// CallTargetFunc implements dbgif.Debugger (duel_call_target_func): it
// converts the DUEL values to target datums, invokes the function at addr,
// and converts the result back.
func (d *Debugger) CallTargetFunc(addr uint64, args []dbgif.Value) (dbgif.Value, error) {
	f, ok := d.P.FunctionAt(addr)
	if !ok {
		return dbgif.Value{}, fmt.Errorf("debugger: no function at 0x%x", addr)
	}
	in := make([]target.Datum, len(args))
	for i, a := range args {
		in[i] = target.Datum{Type: a.Type, Bytes: a.Bytes}
	}
	out, err := d.P.CallFunc(f, in)
	if err != nil {
		return dbgif.Value{}, err
	}
	return dbgif.Value{Type: out.Type, Bytes: out.Bytes}, nil
}

// GetTargetVariable implements dbgif.Debugger (duel_get_target_variable):
// locals of the selected frame shadow globals; function names resolve to
// their entry with function type.
func (d *Debugger) GetTargetVariable(name string) (dbgif.VarInfo, bool) {
	if fr, ok := d.P.FrameAt(d.SelectedFrame); ok {
		if v, ok := fr.Local(name); ok {
			return dbgif.VarInfo{Name: name, Type: v.Type, Addr: v.Addr}, true
		}
	}
	if v, ok := d.P.Global(name); ok {
		return dbgif.VarInfo{Name: name, Type: v.Type, Addr: v.Addr}, true
	}
	if f, ok := d.P.Function(name); ok {
		return dbgif.VarInfo{Name: name, Type: f.Type, Addr: f.Addr}, true
	}
	return dbgif.VarInfo{}, false
}

// FrameVariable implements dbgif.Debugger.
func (d *Debugger) FrameVariable(level int, name string) (dbgif.VarInfo, bool) {
	fr, ok := d.P.FrameAt(level)
	if !ok {
		return dbgif.VarInfo{}, false
	}
	v, ok := fr.Local(name)
	if !ok {
		return dbgif.VarInfo{}, false
	}
	return dbgif.VarInfo{Name: name, Type: v.Type, Addr: v.Addr}, true
}

// FrameLocals implements dbgif.Debugger.
func (d *Debugger) FrameLocals(level int) ([]dbgif.VarInfo, bool) {
	fr, ok := d.P.FrameAt(level)
	if !ok {
		return nil, false
	}
	out := make([]dbgif.VarInfo, 0, len(fr.Locals))
	for _, v := range fr.Locals {
		out = append(out, dbgif.VarInfo{Name: v.Name, Type: v.Type, Addr: v.Addr})
	}
	return out, true
}

// NumFrames implements dbgif.Debugger.
func (d *Debugger) NumFrames() int { return d.P.NumFrames() }

// LookupTypedef implements dbgif.Debugger (duel_get_target_typedef).
func (d *Debugger) LookupTypedef(name string) (ctype.Type, bool) {
	td, ok := d.P.Typedef(name)
	if !ok {
		return nil, false
	}
	return td, true
}

// LookupStruct implements dbgif.Debugger (duel_get_target_struct/union).
func (d *Debugger) LookupStruct(tag string, union bool) (*ctype.Struct, bool) {
	return d.P.Struct(tag, union)
}

// LookupEnum implements dbgif.Debugger (duel_get_target_enum).
func (d *Debugger) LookupEnum(tag string) (*ctype.Enum, bool) {
	return d.P.Enum(tag)
}

// LookupEnumConst implements dbgif.Debugger.
func (d *Debugger) LookupEnumConst(name string) (ctype.Type, int64, bool) {
	e, v, ok := d.P.EnumConst(name)
	if !ok {
		return nil, 0, false
	}
	return e, v, true
}

var (
	_ dbgif.Debugger = (*Debugger)(nil)
	_ dbgif.Fetcher  = (*Debugger)(nil)
)
