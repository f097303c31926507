// Package faultdbg is a deterministic fault-injecting middleware for the
// narrow DUEL-debugger interface. An Injector wraps any dbgif.Debugger and
// makes it sick on a reproducible schedule: reads hit unmapped or short
// ranges, operations fail transiently or slow down, allocation is exhausted,
// and target calls fail or wedge.
//
// The paper's engine meets an unreliable substrate exactly at this interface
// (its answer is the symbolic error message "Illegal memory reference in ...
// ptr[48] ... 0x16820"); Hanson's nub re-architecture (MSR-TR-99-4) makes the
// same seven functions remote and therefore fallible. faultdbg lets tests
// drive every layer above the interface through all of those failure modes
// without a real sick target: the soak tests assert that no schedule can
// panic, hang, or leak a session.
//
// Determinism: a Plan is executed by a seeded PRNG consumed once per
// interface operation under a lock, so a (wrapped-debugger, Plan) pair always
// produces the same fault sequence for the same operation sequence. Explicit
// Script entries override the dice for exact-operation placement.
//
// Injected faults are typed: they surface as *memio.Fault values with the
// matching Kind (unmapped, short, transient), wrapping ErrInjected, so the
// layers above classify them exactly like organic faults and tests can still
// tell them apart with errors.Is.
package faultdbg

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"duel/internal/ctype"
	"duel/internal/dbgif"
	"duel/internal/memio"
)

// Kind enumerates the injectable failure modes.
type Kind int

const (
	// Unmapped fails a read as if the first byte were not mapped — the
	// paper's garbage-pointer case.
	Unmapped Kind = iota
	// Short fails a read as if the range ran off the end of a mapping.
	Short
	// Transient fails a read or write with a retryable fault
	// (memio.KindTransient); the accessor's backoff usually absorbs it.
	Transient
	// Latency delays an operation by Plan.Latency before passing it
	// through unchanged.
	Latency
	// AllocFail reports target-space exhaustion from AllocTargetSpace.
	AllocFail
	// CallFail fails CallTargetFunc without running the callee.
	CallFail
	// CallHang blocks CallTargetFunc until an Interrupt arrives or
	// Plan.Hang elapses, then fails it — a wedged target call.
	CallHang

	numKinds
)

var kindNames = [numKinds]string{
	"unmapped", "short", "transient", "latency", "allocfail", "callfail", "callhang",
}

func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Kinds lists every injectable kind, for "arm everything" plans.
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// ErrInjected is the underlying error of every injected fault, so tests can
// distinguish injected failures from organic ones with errors.Is.
var ErrInjected = fmt.Errorf("faultdbg: injected fault")

// ErrInterrupted is returned by operations released early by Interrupt.
var ErrInterrupted = fmt.Errorf("faultdbg: interrupted")

// ScriptEntry pins one fault to one exact operation: the Op-th interface
// operation (1-based, counted across reads, writes, allocs and calls) fails
// with Kind regardless of the dice. Entries whose Kind does not apply to the
// operation reached at that count are ignored.
type ScriptEntry struct {
	Op   int64
	Kind Kind
}

// Plan is a reproducible fault schedule. The zero Plan injects nothing — an
// Injector with a zero Plan is a transparent pass-through.
type Plan struct {
	// Seed seeds the PRNG driving the Rates dice.
	Seed int64
	// Rates gives the per-operation injection probability of each kind.
	// Kinds that do not apply to an operation (e.g. Unmapped on a write)
	// are never rolled for it, keeping the dice stream deterministic per
	// operation category.
	Rates map[Kind]float64
	// Script pins faults to exact operation counts, on top of Rates.
	Script []ScriptEntry
	// Latency is the delay of one Latency fault (0 = 1ms).
	Latency time.Duration
	// Hang bounds a CallHang block (0 = 250ms). Interrupt releases a hang
	// early, which is how the evaluation deadline unwedges a session.
	Hang time.Duration
	// After suppresses all injection for the first After operations, so a
	// schedule can let a session warm up.
	After int64
	// Limit caps the total number of injected faults (0 = unlimited).
	Limit int64
}

// active reports whether the plan can inject anything at all.
func (p *Plan) active() bool { return len(p.Rates) > 0 || len(p.Script) > 0 }

// Derive returns a copy of the plan reseeded for lane i, so a concurrent
// soak can hand each goroutine its own reproducible schedule from one base
// plan: same rates, different dice. Scripted entries are kept as-is — they
// pin faults to per-injector operation counts, which stay deterministic
// per lane.
func (p Plan) Derive(i int64) Plan {
	p.Seed ^= int64(uint64(i+1) * 0x9E3779B97F4A7C15)
	return p
}

// DeriveTarget returns a copy of the plan reseeded for a named chaos lane,
// the string-keyed analog of Derive: a serve-level soak holds one base plan
// and gives every registered target its own reproducible dice stream keyed
// by the target's name. FNV-1a folds the name; the golden-ratio multiply
// then spreads it exactly like Derive spreads lane indices, so
// DeriveTarget(name).Derive(lane) still yields per-target-per-lane streams.
func (p Plan) DeriveTarget(name string) Plan {
	const (
		offset64 = 0xCBF29CE484222325
		prime64  = 0x100000001B3
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	p.Seed ^= int64(h * 0x9E3779B97F4A7C15)
	return p
}

// DeriveReplica returns a copy of the plan reseeded for replica i of the
// named logical target: DeriveTarget folds the group key, Derive spreads
// the replica index, so a fleet soak holds ONE base plan and every replica
// of every group gets its own reproducible dice stream — replica 0 and
// replica 1 of the same group see different faults, and replica 0 of group
// "a" differs from replica 0 of group "b".
func (p Plan) DeriveReplica(target string, i int) Plan {
	return p.DeriveTarget(target).Derive(int64(i))
}

// Stats counts an Injector's traffic and injections.
type Stats struct {
	Ops      int64 // interface operations seen (reads, writes, allocs, calls)
	Injected [numKinds]int64
}

// Total returns the number of injected faults across all kinds.
func (s Stats) Total() int64 {
	var t int64
	for _, n := range s.Injected {
		t += n
	}
	return t
}

func (s Stats) String() string {
	out := fmt.Sprintf("ops=%d injected=%d", s.Ops, s.Total())
	for k, n := range s.Injected {
		if n > 0 {
			out += fmt.Sprintf(" %s=%d", Kind(k), n)
		}
	}
	return out
}

// opClass is the operation category a fault decision is made for.
type opClass int

const (
	opRead opClass = iota
	opWrite
	opAlloc
	opCall
)

// applicable lists, per operation class, the kinds rolled for it — in fixed
// order, so the dice stream is reproducible.
var applicable = [...][]Kind{
	opRead:  {Unmapped, Short, Transient, Latency},
	opWrite: {Transient, Latency},
	opAlloc: {AllocFail, Latency},
	opCall:  {CallFail, CallHang, Latency},
}

// Injector wraps a debugger and injects faults per its Plan. It implements
// dbgif.Debugger (symbol/type/frame lookups and address validation delegate
// untouched — the schedule covers the operations that move bytes) and
// dbgif.Interrupter (Interrupt releases hangs and latency sleeps).
//
// All methods are safe for concurrent use as long as the wrapped debugger
// tolerates the same access pattern.
type Injector struct {
	dbgif.Debugger

	mu    sync.Mutex
	plan  Plan
	rng   *rand.Rand
	stats Stats
	abort chan struct{} // closed by Interrupt; replaced by Resume
}

// New wraps d with a fault injector executing plan. A zero Plan passes every
// operation through unchanged.
func New(d dbgif.Debugger, plan Plan) *Injector {
	i := &Injector{Debugger: d, abort: make(chan struct{})}
	i.arm(plan)
	return i
}

// Arm installs a new plan and resets the PRNG and counters, so the same plan
// always yields the same schedule.
func (i *Injector) Arm(plan Plan) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.arm(plan)
}

func (i *Injector) arm(plan Plan) {
	if plan.Latency <= 0 {
		plan.Latency = time.Millisecond
	}
	if plan.Hang <= 0 {
		plan.Hang = 250 * time.Millisecond
	}
	i.plan = plan
	i.rng = rand.New(rand.NewSource(plan.Seed))
	i.stats = Stats{}
}

// Disarm stops all injection (equivalent to arming the zero Plan).
func (i *Injector) Disarm() { i.Arm(Plan{}) }

// Unwrap implements dbgif.Wrapper, exposing the wrapped debugger so
// optional interfaces (dbgif.Capabilities, ...) survive the injector.
func (i *Injector) Unwrap() dbgif.Debugger { return i.Debugger }

// CanWrite implements dbgif.Capabilities by delegation: injected sickness
// does not change what the substrate below fundamentally supports.
func (i *Injector) CanWrite() bool { return dbgif.CanWrite(i.Debugger) }

// CanAlloc implements dbgif.Capabilities by delegation.
func (i *Injector) CanAlloc() bool { return dbgif.CanAlloc(i.Debugger) }

// CanCall implements dbgif.Capabilities by delegation.
func (i *Injector) CanCall() bool { return dbgif.CanCall(i.Debugger) }

// Armed reports whether the current plan can inject faults.
func (i *Injector) Armed() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.plan.active()
}

// Plan returns a copy of the current plan.
func (i *Injector) CurrentPlan() Plan {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.plan
}

// Stats returns a snapshot of the injection counters.
func (i *Injector) Stats() Stats {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.stats
}

// Interrupt implements dbgif.Interrupter: it releases in-flight hangs and
// latency sleeps (they fail with ErrInterrupted) and forwards the request.
func (i *Injector) Interrupt() {
	i.mu.Lock()
	select {
	case <-i.abort:
	default:
		close(i.abort)
	}
	i.mu.Unlock()
	dbgif.Interrupt(i.Debugger)
}

// Resume implements dbgif.Interrupter, re-arming hangs for the next
// evaluation.
func (i *Injector) Resume() {
	i.mu.Lock()
	select {
	case <-i.abort:
		i.abort = make(chan struct{})
	default:
	}
	i.mu.Unlock()
	dbgif.Resume(i.Debugger)
}

// decide rolls the dice for one operation and returns the fault to inject,
// if any, plus the abort channel to honor while sleeping.
func (i *Injector) decide(class opClass) (Kind, chan struct{}, bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.stats.Ops++
	if !i.plan.active() {
		return 0, i.abort, false
	}
	op := i.stats.Ops
	if op <= i.plan.After {
		return 0, i.abort, false
	}
	if i.plan.Limit > 0 && i.stats.Total() >= i.plan.Limit {
		return 0, i.abort, false
	}
	for _, s := range i.plan.Script {
		if s.Op == op && kindApplies(s.Kind, class) {
			i.stats.Injected[s.Kind]++
			return s.Kind, i.abort, true
		}
	}
	for _, k := range applicable[class] {
		rate := i.plan.Rates[k]
		if rate <= 0 {
			continue
		}
		if i.rng.Float64() < rate {
			i.stats.Injected[k]++
			return k, i.abort, true
		}
	}
	return 0, i.abort, false
}

func kindApplies(k Kind, class opClass) bool {
	for _, a := range applicable[class] {
		if a == k {
			return true
		}
	}
	return false
}

// sleep blocks for d or until abort closes; it reports false when aborted.
func sleep(d time.Duration, abort chan struct{}) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-abort:
		return false
	}
}

// GetTargetBytes implements dbgif.Debugger.
func (i *Injector) GetTargetBytes(addr uint64, n int) ([]byte, error) {
	return dbgif.Get(i, addr, n)
}

// FetchTargetBytes implements dbgif.Fetcher: one read of the schedule, then
// a fetch from the wrapped debugger (through its GetTargetBytes if it cannot
// fetch).
func (i *Injector) FetchTargetBytes(addr uint64, dst []byte) error {
	n := len(dst)
	k, abort, inject := i.decide(opRead)
	if inject {
		switch k {
		case Unmapped:
			return &memio.Fault{Addr: addr, Len: n, Op: memio.OpRead, Kind: memio.KindUnmapped, Err: ErrInjected}
		case Short:
			return &memio.Fault{Addr: addr, Len: n, Op: memio.OpRead, Kind: memio.KindShort, Err: ErrInjected}
		case Transient:
			return &memio.Fault{Addr: addr, Len: n, Op: memio.OpRead, Kind: memio.KindTransient, Err: ErrInjected}
		case Latency:
			if !sleep(i.latency(), abort) {
				return &memio.Fault{Addr: addr, Len: n, Op: memio.OpRead, Kind: memio.KindOther, Err: ErrInterrupted}
			}
		}
	}
	return dbgif.Fetch(i.Debugger, addr, dst)
}

// PutTargetBytes implements dbgif.Debugger.
func (i *Injector) PutTargetBytes(addr uint64, b []byte) error {
	k, abort, inject := i.decide(opWrite)
	if inject {
		switch k {
		case Transient:
			return &memio.Fault{Addr: addr, Len: len(b), Op: memio.OpWrite, Kind: memio.KindTransient, Err: ErrInjected}
		case Latency:
			if !sleep(i.latency(), abort) {
				return &memio.Fault{Addr: addr, Len: len(b), Op: memio.OpWrite, Kind: memio.KindOther, Err: ErrInterrupted}
			}
		}
	}
	return i.Debugger.PutTargetBytes(addr, b)
}

// AllocTargetSpace implements dbgif.Debugger.
func (i *Injector) AllocTargetSpace(n, align int) (uint64, error) {
	k, abort, inject := i.decide(opAlloc)
	if inject {
		switch k {
		case AllocFail:
			return 0, fmt.Errorf("%w: target space exhausted (alloc of %d)", ErrInjected, n)
		case Latency:
			if !sleep(i.latency(), abort) {
				return 0, ErrInterrupted
			}
		}
	}
	return i.Debugger.AllocTargetSpace(n, align)
}

// CallTargetFunc implements dbgif.Debugger.
func (i *Injector) CallTargetFunc(addr uint64, args []dbgif.Value) (dbgif.Value, error) {
	k, abort, inject := i.decide(opCall)
	if inject {
		switch k {
		case CallFail:
			return dbgif.Value{}, &memio.Fault{Addr: addr, Op: memio.OpCall, Kind: memio.KindOther,
				Err: fmt.Errorf("%w: target call failed", ErrInjected)}
		case CallHang:
			if !sleep(i.hang(), abort) {
				return dbgif.Value{}, &memio.Fault{Addr: addr, Op: memio.OpCall, Kind: memio.KindOther, Err: ErrInterrupted}
			}
			return dbgif.Value{}, &memio.Fault{Addr: addr, Op: memio.OpCall, Kind: memio.KindOther,
				Err: fmt.Errorf("%w: target call wedged", ErrInjected)}
		case Latency:
			if !sleep(i.latency(), abort) {
				return dbgif.Value{}, &memio.Fault{Addr: addr, Op: memio.OpCall, Kind: memio.KindOther, Err: ErrInterrupted}
			}
		}
	}
	return i.Debugger.CallTargetFunc(addr, args)
}

func (i *Injector) latency() time.Duration {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.plan.Latency
}

func (i *Injector) hang() time.Duration {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.plan.Hang
}

// Arch delegates so the embedded interface stays fully implemented even if
// the wrapped debugger is replaced.
func (i *Injector) Arch() *ctype.Arch { return i.Debugger.Arch() }

var (
	_ dbgif.Debugger     = (*Injector)(nil)
	_ dbgif.Fetcher      = (*Injector)(nil)
	_ dbgif.Interrupter  = (*Injector)(nil)
	_ dbgif.Capabilities = (*Injector)(nil)
	_ dbgif.Wrapper      = (*Injector)(nil)
)
