// Package dbgif defines the narrow two-way interface between DUEL and a host
// debugger, mirroring the interface the paper describes (§Implementation):
//
//	duel_get_target_bytes / duel_put_target_bytes
//	duel_alloc_target_space
//	duel_call_target_func
//	duel_get_target_variable
//	duel_get_target_typedef/struct/union/enum
//
// plus the "few other miscellaneous functions" the paper mentions: the
// number of active frames, frame-local lookup, and address validity.
//
// The DUEL engine (internal/core, internal/duel/value) touches target state
// only through this interface, so DUEL can be attached to any debugger that
// implements it. internal/debugger implements it over the simulated target;
// tests include an independent in-memory implementation to demonstrate the
// interface is sufficient.
//
// Sessions do not call a Debugger's memory methods directly: internal/memio
// wraps every Debugger in an Accessor (itself a Debugger) that adds typed
// fault errors, per-session counters, and an optional page cache.
package dbgif

import (
	"errors"
	"fmt"

	"duel/internal/ctype"
)

// Value is a typed rvalue crossing the interface: raw bytes of a C value in
// target representation. (The paper's interface module spends ~100 lines
// "converting between gdb and Duel types"; our adapter does the same
// conversion between Value and the target's internal datum type.)
type Value struct {
	Type  ctype.Type
	Bytes []byte
}

// VarInfo describes a target symbol: its type and the address of its
// storage (for functions, the entry address).
type VarInfo struct {
	Name string
	Type ctype.Type
	Addr uint64
}

// Interrupter is an optional interface a Debugger may implement when its
// operations can block (remote round-trips, injected latency, hanging target
// calls). Interrupt asks in-flight and future operations to fail fast with an
// error instead of blocking; Resume clears the request. The evaluation
// deadline (core.Options.Timeout) uses it to guarantee that a wedged target
// cannot hang a session: on timeout the engine interrupts the session's
// accessor, which forwards the request down the wrapper chain.
//
// Implementations must make both methods safe for concurrent use, and
// Interrupt must be safe to call while another goroutine is blocked inside a
// Debugger method.
type Interrupter interface {
	Interrupt()
	Resume()
}

// Interrupt forwards an interrupt request to d if it supports one.
func Interrupt(d Debugger) {
	if i, ok := d.(Interrupter); ok {
		i.Interrupt()
	}
}

// Resume clears an interrupt request on d if it supports one.
func Resume(d Debugger) {
	if i, ok := d.(Interrupter); ok {
		i.Resume()
	}
}

// Fetcher is an optional interface a Debugger implements when it can read
// target memory into a buffer the caller owns, the nub's
// _Nub_fetch(space, address, buf, nbytes) (Hanson, MSR-TR-99-4). On success
// every byte of dst holds target memory; on error dst's contents are
// unspecified. A fetch of len(dst) == 0 faults exactly where a zero-length
// GetTargetBytes does. The substrate must not keep dst.
type Fetcher interface {
	FetchTargetBytes(addr uint64, dst []byte) error
}

// Fetch reads len(dst) bytes at addr into dst: through d's own
// FetchTargetBytes when d has one, otherwise through GetTargetBytes and a
// copy. It deliberately does not walk d's Unwrap chain: a wrapper that
// intercepts reads without fetching (fault injection, tracing, recording)
// must still see every read, so only the outermost layer decides.
func Fetch(d Debugger, addr uint64, dst []byte) error {
	if f, ok := d.(Fetcher); ok {
		return f.FetchTargetBytes(addr, dst)
	}
	return getFetcher{d}.FetchTargetBytes(addr, dst)
}

// FetcherOf returns what Fetch reads d through, so a layer that reads one
// debugger many times asserts its interface once.
func FetcherOf(d Debugger) Fetcher {
	if f, ok := d.(Fetcher); ok {
		return f
	}
	return getFetcher{d}
}

// getFetcher fetches from a debugger that only implements GetTargetBytes.
type getFetcher struct{ d Debugger }

func (g getFetcher) FetchTargetBytes(addr uint64, dst []byte) error {
	b, err := g.d.GetTargetBytes(addr, len(dst))
	if err != nil {
		return err
	}
	if len(b) != len(dst) {
		return fmt.Errorf("dbgif: short read of %d of %d bytes at 0x%x", len(b), len(dst), addr)
	}
	copy(dst, b)
	return nil
}

// Get is GetTargetBytes for a substrate whose read is its FetchTargetBytes:
// it allocates n bytes and fetches into them.
func Get(f Fetcher, addr uint64, n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("dbgif: negative read of %d bytes at 0x%x", n, addr)
	}
	b := make([]byte, n)
	if err := f.FetchTargetBytes(addr, b); err != nil {
		return nil, err
	}
	return b, nil
}

// ErrReadOnlyTarget is the sentinel every immutable substrate wraps in the
// errors it returns from PutTargetBytes, AllocTargetSpace and
// CallTargetFunc. A core dump is a photograph of a process, not a process:
// it cannot be written, grown or run. Layers above match it with errors.Is
// to fail a declaration, assignment or call cleanly (per element, under
// ErrorValues) instead of treating it as target sickness.
var ErrReadOnlyTarget = errors.New("dbgif: target is read-only")

// Capabilities is an optional interface a Debugger may implement to declare
// which mutating operations its substrate supports. A live process supports
// all three; a core dump supports none. Absence of the interface means
// "fully capable" — the zero-cost default for every writable substrate.
//
// Capability queries must be cheap and stable: callers (the serving layer's
// query classifier, the conformance battery, the evaluator's error paths)
// may ask on every query.
type Capabilities interface {
	// CanWrite reports whether PutTargetBytes can succeed.
	CanWrite() bool
	// CanAlloc reports whether AllocTargetSpace can succeed.
	CanAlloc() bool
	// CanCall reports whether CallTargetFunc can succeed.
	CanCall() bool
}

// Wrapper is the unwrap convention for debugger middleware (memio.Accessor,
// faultdbg.Injector): a wrapper that cannot answer an optional-interface
// query itself exposes the debugger it wraps, and the capability helpers
// walk the chain. This is errors.Unwrap for debuggers — without it, any
// wrapper inserted into the chain would silently erase the optional
// interfaces of everything below it.
type Wrapper interface {
	Unwrap() Debugger
}

// capabilitiesOf walks d's unwrap chain to the first layer that declares
// capabilities.
func capabilitiesOf(d Debugger) (Capabilities, bool) {
	for d != nil {
		if c, ok := d.(Capabilities); ok {
			return c, true
		}
		w, ok := d.(Wrapper)
		if !ok {
			return nil, false
		}
		d = w.Unwrap()
	}
	return nil, false
}

// CanWrite reports whether d's substrate accepts PutTargetBytes. Debuggers
// that declare no Capabilities anywhere in their unwrap chain are fully
// capable.
func CanWrite(d Debugger) bool {
	if c, ok := capabilitiesOf(d); ok {
		return c.CanWrite()
	}
	return true
}

// CanAlloc reports whether d's substrate accepts AllocTargetSpace.
func CanAlloc(d Debugger) bool {
	if c, ok := capabilitiesOf(d); ok {
		return c.CanAlloc()
	}
	return true
}

// CanCall reports whether d's substrate accepts CallTargetFunc.
func CanCall(d Debugger) bool {
	if c, ok := capabilitiesOf(d); ok {
		return c.CanCall()
	}
	return true
}

// ReadOnly reports whether d can neither write, allocate nor run target
// code — the classification the serving layer uses to keep every query
// against such a target on the shared read-lock fast path.
func ReadOnly(d Debugger) bool {
	c, ok := capabilitiesOf(d)
	return ok && !c.CanWrite() && !c.CanAlloc() && !c.CanCall()
}

// Debugger is everything DUEL needs from a host debugger.
type Debugger interface {
	// Arch reports the target's data model.
	Arch() *ctype.Arch

	// GetTargetBytes copies n bytes from the target address space
	// (duel_get_target_bytes).
	GetTargetBytes(addr uint64, n int) ([]byte, error)

	// PutTargetBytes copies bytes into the target address space
	// (duel_put_target_bytes).
	PutTargetBytes(addr uint64, b []byte) error

	// ValidTargetAddr reports whether [addr, addr+n) is mapped; the -->
	// expansion operators use it to stop at invalid pointers.
	ValidTargetAddr(addr uint64, n int) bool

	// AllocTargetSpace allocates n bytes in the target
	// (duel_alloc_target_space); DUEL declarations such as "int i;"
	// allocate their storage here.
	AllocTargetSpace(n, align int) (uint64, error)

	// CallTargetFunc calls the function at the given entry address
	// (duel_call_target_func).
	CallTargetFunc(addr uint64, args []Value) (Value, error)

	// GetTargetVariable returns value/type information for a symbol
	// (duel_get_target_variable): frame locals of the selected frame
	// shadow globals; function names yield their entry address with a
	// function type. The second result is false if the name is unknown.
	GetTargetVariable(name string) (VarInfo, bool)

	// FrameVariable resolves a name in the locals of frame level
	// (0 = innermost).
	FrameVariable(level int, name string) (VarInfo, bool)

	// FrameLocals lists the locals (including parameters) of a frame.
	FrameLocals(level int) ([]VarInfo, bool)

	// NumFrames reports the number of active stack frames.
	NumFrames() int

	// LookupTypedef resolves a typedef name
	// (duel_get_target_typedef).
	LookupTypedef(name string) (ctype.Type, bool)

	// LookupStruct resolves a struct or union tag
	// (duel_get_target_struct/union).
	LookupStruct(tag string, union bool) (*ctype.Struct, bool)

	// LookupEnum resolves an enum tag (duel_get_target_enum).
	LookupEnum(tag string) (*ctype.Enum, bool)

	// LookupEnumConst resolves an enumeration constant by name.
	LookupEnumConst(name string) (ctype.Type, int64, bool)
}
