// Package memio routes every byte of DUEL's target-memory traffic through
// one instrumented Accessor. The paper's engine touches the debuggee only
// through the narrow seven-function interface (duel_get_target_bytes & co.),
// and its performance hinges on how many of those round-trips an expression
// like x[..100000] >? 0 or a -->next list walk performs. Hanson's nub paper
// (MSR-TR-99-4) draws the same conclusion for any narrow debugger interface:
// instrument and cache reads on the debugger side of the boundary instead of
// sprinkling raw byte fetches through the evaluator.
//
// Accessor wraps a dbgif.Debugger and is itself a dbgif.Debugger, so every
// layer above (core.Env, value.Ctx, display.Printer, the evaluator
// backends) holds an Accessor and cannot bypass it. It adds:
//
//   - a page-granular read cache (configurable page size, LRU-bounded entry
//     count) with write-through invalidation on PutTargetBytes and
//     AllocTargetSpace, and a conservative whole-cache flush around
//     CallTargetFunc (a target call may mutate arbitrary memory);
//   - typed fault errors (Fault{Addr, Len, Op}) replacing ad-hoc error
//     strings, so --> expansion and the symbolic error messages can
//     distinguish unmapped reads from short (partially mapped) reads;
//   - per-session traffic counters (requests, bytes, round-trips, cache
//     hits/misses, invalidations) that core.Counters merges for the F2
//     cost-breakdown experiment.
//
// Caching is off by default — one engine request, one host round-trip —
// which is faithful to the paper's implementation; core.Options.MemCache
// turns it on. With it off the accessor holds no pages at all, and a read
// that does not fault takes no lock. Symbol, type and frame lookups are
// delegated to the wrapped debugger untouched: memio instruments memory,
// not symbols.
package memio

import (
	"container/list"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"duel/internal/dbgif"
)

// Defaults used for Config fields left zero.
const (
	DefaultPageSize = 256
	DefaultMaxPages = 1024

	// DefaultRetries is the number of extra attempts after a transient
	// fault before the fault is surfaced to the engine.
	DefaultRetries = 3
	// DefaultRetryBackoff is the first retry delay; each further retry
	// doubles it, capped at DefaultRetryCap.
	DefaultRetryBackoff = 100 * time.Microsecond
	// DefaultRetryCap bounds one backoff sleep.
	DefaultRetryCap = 10 * time.Millisecond
)

// Op identifies the interface operation a Fault arose from.
type Op uint8

const (
	OpRead Op = iota
	OpWrite
	OpAlloc
	OpCall
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpAlloc:
		return "alloc"
	case OpCall:
		return "call"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Kind classifies why a memory operation faulted.
type Kind uint8

const (
	// KindUnmapped: the very first byte of the range is not mapped — the
	// paper's garbage-pointer case (ptr[48] = lvalue 0x16820).
	KindUnmapped Kind = iota
	// KindShort: the range starts in mapped memory but runs off its end,
	// e.g. a struct read straddling the last mapped byte.
	KindShort
	// KindOther: the host debugger failed for some other reason.
	KindOther
	// KindTransient: the operation failed for a reason that may clear on
	// retry — a dropped remote round-trip, a momentarily wedged target.
	// The Accessor retries transient faults with capped exponential
	// backoff before surfacing them.
	KindTransient
)

func (k Kind) String() string {
	switch k {
	case KindUnmapped:
		return "unmapped"
	case KindShort:
		return "short"
	case KindTransient:
		return "transient"
	}
	return "failed"
}

// ErrTransient marks a host-debugger error as retryable. Hosts that cannot
// construct a *Fault directly wrap this sentinel (errors.Is) to request
// retry-with-backoff from the Accessor.
var ErrTransient = errors.New("memio: transient target fault")

// ErrInterrupted is the underlying error of operations aborted by an
// Interrupt request (evaluation deadline). It is never retried.
var ErrInterrupted = errors.New("memio: operation interrupted")

// IsTransient reports whether err asks for a retry: a Fault classified
// KindTransient, or any error wrapping ErrTransient.
func IsTransient(err error) bool {
	var f *Fault
	if errors.As(err, &f) && f.Kind == KindTransient {
		return true
	}
	return errors.Is(err, ErrTransient)
}

// RetryExhaustedError marks a transient fault that survived the accessor's
// entire retry schedule: every attempt the Config.Retries budget allowed came
// back transient, so the fault was surfaced instead of absorbed. Layers with
// a wider view than one memory operation key their own retry policies on it —
// internal/serve re-runs whole read-only queries on a fresh session under a
// token-bucket budget exactly when the failure is this one, as opposed to a
// permanent fault (unmapped, short) that a re-run cannot fix, or an interrupt
// (the caller's own cancellation) that must not be fought.
type RetryExhaustedError struct {
	Attempts int   // attempts issued: the first try plus every retry
	Err      error // the final transient failure
}

func (e *RetryExhaustedError) Error() string {
	return fmt.Sprintf("transient retries exhausted after %d attempts: %v", e.Attempts, e.Err)
}

func (e *RetryExhaustedError) Unwrap() error { return e.Err }

// IsRetryExhausted reports whether err carries a RetryExhaustedError — the
// signal that the accessor already spent its whole per-operation retry
// schedule on a transient fault and another immediate low-level retry is
// pointless, but a coarser-grained retry (a fresh query attempt) may not be.
func IsRetryExhausted(err error) bool {
	var re *RetryExhaustedError
	return errors.As(err, &re)
}

// Fault is the typed error for a failed target-memory operation. It replaces
// the host debuggers' ad-hoc error strings at the memio boundary; callers
// that need to distinguish an unmapped read from a short read use errors.As
// and inspect Kind.
type Fault struct {
	Addr uint64
	Len  int
	Op   Op
	Kind Kind
	Err  error // underlying host-debugger error, if any
}

func (f *Fault) Error() string {
	s := fmt.Sprintf("memio: %s %s of %d bytes at 0x%x", f.Kind, f.Op, f.Len, f.Addr)
	if (f.Kind == KindOther || f.Kind == KindTransient) && f.Err != nil {
		s += ": " + f.Err.Error()
	}
	return s
}

func (f *Fault) Unwrap() error { return f.Err }

// Config tunes an Accessor.
type Config struct {
	// Cache enables the page-granular read cache. Off is faithful to the
	// paper: every engine read is one host round-trip.
	Cache bool
	// PageSize is the cache granularity in bytes; it is rounded up to a
	// power of two. 0 means DefaultPageSize.
	PageSize int
	// MaxPages bounds the number of resident pages (LRU eviction).
	// 0 means DefaultMaxPages.
	MaxPages int
	// Retries is the number of extra attempts after a transient fault
	// (see IsTransient). 0 means DefaultRetries; negative disables
	// retrying entirely.
	Retries int
	// RetryBackoff is the first retry delay (doubled per retry, capped at
	// DefaultRetryCap). 0 means DefaultRetryBackoff.
	RetryBackoff time.Duration
}

// Stats counts the memory traffic of one Accessor.
type Stats struct {
	Reads      int64 // read requests from the engine
	ReadBytes  int64 // bytes those requests asked for
	HostReads  int64 // GetTargetBytes round-trips issued to the host debugger
	HostBytes  int64 // bytes those round-trips returned
	Writes     int64 // write requests (all write-through)
	WriteBytes int64

	Hits          int64 // page-cache hits
	Misses        int64 // page fills and uncached fallbacks
	Evictions     int64 // pages dropped by the LRU bound
	Invalidations int64 // pages dropped by writes, allocs and call flushes
	Flushes       int64 // conservative whole-cache flushes (target calls)

	Transients int64 // transient faults observed (including retried-away ones)
	Retries    int64 // retry attempts issued after transient faults
}

// Accessor is the single gateway for target-memory traffic. It implements
// dbgif.Debugger by wrapping one, so it can be handed to anything that
// expects the narrow interface. It is safe for concurrent use as long as the
// wrapped debugger tolerates the same access pattern.
type Accessor struct {
	dbgif.Debugger // host debugger; symbol/type/frame calls delegate to it

	src         dbgif.Fetcher // the host debugger's read, dbgif.FetcherOf(Debugger)
	cfg         Config
	interrupted atomic.Bool // set by Interrupt: fail fast, skip retries
	// intrMu guards the abort channel's lifecycle only; it is never held
	// across a host call, so Interrupt stays safe to call from a watchdog
	// while an operation holds mu.
	intrMu sync.Mutex
	abort  chan struct{} // closed by Interrupt, replaced by Resume
	mu     sync.Mutex
	// pages and lru are the page cache, nil when Config.Cache is off.
	pages map[uint64]*list.Element
	lru   *list.List // front = most recently used; elements hold *page
	stats Stats      // changed under mu
	// direct and directBytes count the reads of the lock-free path: each
	// is one engine read and one host round-trip of its bytes, so Stats
	// adds them to Reads and HostReads, and to ReadBytes and HostBytes.
	// They are written on every read, so the padding keeps any other
	// object (such as another session's accessor next to this one in
	// memory) off their cache line.
	_           [48]byte
	direct      atomic.Int64
	directBytes atomic.Int64
	_           [48]byte
}

type page struct {
	base uint64
	data []byte
}

// New wraps d. The zero Config gives the faithful pass-through accessor:
// no cache, but faults and counters still apply.
func New(d dbgif.Debugger, cfg Config) *Accessor {
	if cfg.PageSize <= 0 {
		cfg.PageSize = DefaultPageSize
	}
	cfg.PageSize = 1 << bits.Len(uint(cfg.PageSize-1)) // round up to 2^k
	if cfg.MaxPages <= 0 {
		cfg.MaxPages = DefaultMaxPages
	}
	if cfg.Retries == 0 {
		cfg.Retries = DefaultRetries
	} else if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = DefaultRetryBackoff
	}
	a := &Accessor{Debugger: d, src: dbgif.FetcherOf(d), cfg: cfg}
	a.abort = make(chan struct{})
	if cfg.Cache {
		a.pages = make(map[uint64]*list.Element)
		a.lru = list.New()
	}
	return a
}

// Raw returns the wrapped host debugger.
func (a *Accessor) Raw() dbgif.Debugger { return a.Debugger }

// Unwrap implements dbgif.Wrapper, exposing the wrapped debugger so
// optional interfaces (dbgif.Capabilities, and whatever comes next) survive
// the wrapper chain instead of being erased by it.
func (a *Accessor) Unwrap() dbgif.Debugger { return a.Debugger }

// CanWrite implements dbgif.Capabilities by delegation: the accessor adds
// instrumentation, not capability, so it answers with the chain below it.
func (a *Accessor) CanWrite() bool { return dbgif.CanWrite(a.Debugger) }

// CanAlloc implements dbgif.Capabilities by delegation.
func (a *Accessor) CanAlloc() bool { return dbgif.CanAlloc(a.Debugger) }

// CanCall implements dbgif.Capabilities by delegation.
func (a *Accessor) CanCall() bool { return dbgif.CanCall(a.Debugger) }

// Caching reports whether the page cache is enabled.
func (a *Accessor) Caching() bool { return a.cfg.Cache }

// PageSize returns the cache granularity in bytes.
func (a *Accessor) PageSize() int { return a.cfg.PageSize }

// Stats returns a snapshot of the traffic counters.
func (a *Accessor) Stats() Stats {
	a.mu.Lock()
	s := a.stats
	a.mu.Unlock()
	n, b := a.direct.Load(), a.directBytes.Load()
	s.Reads += n
	s.HostReads += n
	s.ReadBytes += b
	s.HostBytes += b
	return s
}

// ResetStats zeroes the traffic counters.
func (a *Accessor) ResetStats() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats = Stats{}
	a.direct.Store(0)
	a.directBytes.Store(0)
}

// CachedPages reports the number of resident cache pages.
func (a *Accessor) CachedPages() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.lru == nil {
		return 0
	}
	return a.lru.Len()
}

// Interrupt implements dbgif.Interrupter: subsequent (and, if the wrapped
// debugger cooperates, in-flight) operations fail fast with ErrInterrupted
// instead of issuing host round-trips or sleeping in retry backoff. The
// evaluation deadline calls it when a session runs out of time.
func (a *Accessor) Interrupt() {
	a.intrMu.Lock()
	if !a.interrupted.Swap(true) {
		// Wake any retry loop sleeping in backoff; closing once per
		// Interrupt/Resume cycle keeps double-Interrupt harmless.
		close(a.abort)
	}
	a.intrMu.Unlock()
	dbgif.Interrupt(a.Debugger)
}

// Resume implements dbgif.Interrupter, clearing a previous Interrupt.
func (a *Accessor) Resume() {
	a.intrMu.Lock()
	if a.interrupted.Swap(false) {
		a.abort = make(chan struct{})
	}
	a.intrMu.Unlock()
	dbgif.Resume(a.Debugger)
}

// abortCh snapshots the current interrupt channel.
func (a *Accessor) abortCh() chan struct{} {
	a.intrMu.Lock()
	ch := a.abort
	a.intrMu.Unlock()
	return ch
}

// interruptedErr builds the fail-fast error for interrupted operations.
func (a *Accessor) interruptedErr(op Op, addr uint64, n int) error {
	return &Fault{Addr: addr, Len: n, Op: op, Kind: KindOther, Err: ErrInterrupted}
}

// withRetry runs do, retrying transient faults (IsTransient) with capped
// exponential backoff. Non-transient errors surface unchanged; a transient
// fault that outlasts the whole schedule surfaces wrapped in a
// RetryExhaustedError so coarser layers can distinguish "retried and still
// transient" from permanent faults. An Interrupt request stops retrying
// immediately — including mid-backoff, so a canceled query is not pinned to
// the remainder of a sleep it started before the interrupt landed — and
// surfaces the raw fault, NOT an exhaustion: an interrupted schedule was
// abandoned, not spent, and must not invite a higher-level retry.
func (a *Accessor) withRetry(do func() error) error { return a.retry(do(), do) }

// retry is withRetry after do's first attempt returned err. A nil or
// non-transient err returns at once, so a call that does not fault never
// enters the schedule.
func (a *Accessor) retry(err error, do func() error) error {
	backoff := a.cfg.RetryBackoff
	for attempt := 0; ; attempt++ {
		if err == nil || !IsTransient(err) {
			return err
		}
		a.stats.Transients++
		if a.interrupted.Load() {
			return err
		}
		if attempt >= a.cfg.Retries {
			return &RetryExhaustedError{Attempts: attempt + 1, Err: err}
		}
		a.stats.Retries++
		t := time.NewTimer(backoff)
		select {
		case <-t.C:
		case <-a.abortCh():
			t.Stop()
			return err
		}
		if backoff *= 2; backoff > DefaultRetryCap {
			backoff = DefaultRetryCap
		}
		err = do()
	}
}

// Flush drops every cached page.
func (a *Accessor) Flush() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.flushLocked()
}

func (a *Accessor) flushLocked() {
	if a.lru == nil || a.lru.Len() == 0 {
		return
	}
	a.stats.Invalidations += int64(a.lru.Len())
	a.stats.Flushes++
	a.pages = make(map[uint64]*list.Element)
	a.lru.Init()
}

// GetTargetBytes implements dbgif.Debugger: FetchTargetBytes into a fresh
// slice.
func (a *Accessor) GetTargetBytes(addr uint64, n int) ([]byte, error) {
	return dbgif.Get(a, addr, n)
}

// FetchTargetBytes implements dbgif.Fetcher: it fills dst, which the caller
// owns, and allocates nothing of its own unless a cache miss fills a page.
//
// With the cache off (the default) a read is one host round-trip, and one
// that does not fault takes no lock: it is counted in two atomics. A fault
// is retried and typed under the lock. With the cache on, reads go through
// the page cache, and fall back to one uncached host read for ranges whose
// pages are not fully mapped, so partial mappings behave exactly as they do
// with the cache off.
func (a *Accessor) FetchTargetBytes(addr uint64, dst []byte) error {
	n := len(dst)
	if !a.cfg.Cache && !a.interrupted.Load() {
		a.direct.Add(1)
		a.directBytes.Add(int64(n))
		err := a.src.FetchTargetBytes(addr, dst)
		if err == nil {
			return nil
		}
		a.mu.Lock()
		defer a.mu.Unlock()
		a.stats.HostBytes -= int64(n) // counted as read by directBytes
		return a.hostFetch(addr, dst, err)
	}
	a.mu.Lock()
	defer a.mu.Unlock() // a substrate that panics must not leave the session locked
	a.stats.Reads++
	a.stats.ReadBytes += int64(n)
	if a.interrupted.Load() {
		return a.interruptedErr(OpRead, addr, n)
	}
	if !a.cfg.Cache || n == 0 || addr+uint64(n) < addr {
		a.stats.HostReads++
		return a.hostFetch(addr, dst, a.src.FetchTargetBytes(addr, dst))
	}
	ps := uint64(a.cfg.PageSize)
	for off := 0; off < n; {
		cur := addr + uint64(off)
		pg := a.pageFor(cur &^ (ps - 1))
		if pg == nil {
			a.stats.Misses++
			if err := a.hostRead(cur, dst[off:]); err != nil {
				return a.fault(OpRead, addr, n, err)
			}
			return nil
		}
		off += copy(dst[off:], pg.data[cur-pg.base:])
	}
	return nil
}

// hostFetch finishes an uncached read of all of dst whose first host
// attempt returned err: it runs the retry schedule, counts the bytes of a
// read that succeeds and types a failure as a Fault. Called with mu held.
func (a *Accessor) hostFetch(addr uint64, dst []byte, err error) error {
	if err = a.retryRead(addr, dst, err); err != nil {
		return a.fault(OpRead, addr, len(dst), err)
	}
	return nil
}

// hostRead issues one read round-trip into dst to the host debugger. A
// read that does not fault runs straight through; a transient fault starts
// the retry schedule. Called with mu held.
func (a *Accessor) hostRead(addr uint64, dst []byte) error {
	a.stats.HostReads++
	return a.retryRead(addr, dst, a.src.FetchTargetBytes(addr, dst))
}

// retryRead is hostRead after the first attempt returned err: transient
// faults are retried, each attempt filling the same dst.
func (a *Accessor) retryRead(addr uint64, dst []byte, err error) error {
	if err != nil {
		err = a.retry(err, func() error {
			a.stats.HostReads++
			return a.src.FetchTargetBytes(addr, dst)
		})
		if err != nil {
			return err
		}
	}
	a.stats.HostBytes += int64(len(dst))
	return nil
}

// pageFor returns the cached page at base, filling it from the host if the
// whole page is mapped, or nil when the range must be read uncached. Called
// with mu held and the cache on.
func (a *Accessor) pageFor(base uint64) *page {
	if el, ok := a.pages[base]; ok {
		a.stats.Hits++
		a.lru.MoveToFront(el)
		return el.Value.(*page)
	}
	if !a.Debugger.ValidTargetAddr(base, a.cfg.PageSize) {
		return nil
	}
	b := make([]byte, a.cfg.PageSize)
	if err := a.hostRead(base, b); err != nil {
		return nil
	}
	a.stats.Misses++
	pg := &page{base: base, data: b}
	a.pages[base] = a.lru.PushFront(pg)
	a.evictLocked()
	return pg
}

// evictLocked drops least recently used pages down to the MaxPages bound.
func (a *Accessor) evictLocked() {
	for a.lru.Len() > a.cfg.MaxPages {
		back := a.lru.Back()
		delete(a.pages, back.Value.(*page).base)
		a.lru.Remove(back)
		a.stats.Evictions++
	}
}

// PutTargetBytes implements dbgif.Debugger: write-through, then invalidate
// the covered pages so the next read refetches.
func (a *Accessor) PutTargetBytes(addr uint64, b []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats.Writes++
	a.stats.WriteBytes += int64(len(b))
	if a.interrupted.Load() {
		return a.interruptedErr(OpWrite, addr, len(b))
	}
	// Writes are idempotent at this interface, so transient faults retry
	// exactly like reads.
	if err := a.withRetry(func() error { return a.Debugger.PutTargetBytes(addr, b) }); err != nil {
		return a.fault(OpWrite, addr, len(b), err)
	}
	a.invalidate(addr, len(b))
	return nil
}

// ValidTargetAddr implements dbgif.Debugger. With the cache on, a range
// fully covered by cached pages is known mapped without a host round-trip:
// the hot path of --> list walks, which validate every pointer before
// following it. With the cache off (the default) it asks the substrate
// without taking mu.
func (a *Accessor) ValidTargetAddr(addr uint64, n int) bool {
	if a.cfg.Cache && n > 0 && addr+uint64(n)-1 >= addr && a.covered(addr, n) {
		return true
	}
	return a.Debugger.ValidTargetAddr(addr, n)
}

// covered reports whether cached pages cover [addr, addr+n), n > 0.
func (a *Accessor) covered(addr uint64, n int) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	ps := uint64(a.cfg.PageSize)
	last := (addr + uint64(n) - 1) &^ (ps - 1)
	for base := addr &^ (ps - 1); ; base += ps {
		if _, ok := a.pages[base]; !ok {
			return false
		}
		if base == last {
			return true
		}
	}
}

// AllocTargetSpace implements dbgif.Debugger. The new storage may overlay
// bytes cached before the allocation (hosts map their heap segment up
// front), so the covered pages are invalidated.
func (a *Accessor) AllocTargetSpace(n, align int) (uint64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	addr, err := a.Debugger.AllocTargetSpace(n, align)
	if err != nil {
		return 0, err
	}
	a.invalidate(addr, n)
	return addr, nil
}

// CallTargetFunc implements dbgif.Debugger. A target call may mutate
// arbitrary memory, so the whole cache is flushed — even on error, since the
// callee may have stored before failing. The lock is NOT held across the
// host call: the callee can re-enter this accessor (watchpoints and
// breakpoint conditions evaluate DUEL expressions mid-call).
func (a *Accessor) CallTargetFunc(addr uint64, args []dbgif.Value) (dbgif.Value, error) {
	if a.interrupted.Load() {
		return dbgif.Value{}, a.interruptedErr(OpCall, addr, 0)
	}
	// Calls are never retried: the callee may have taken effect before a
	// transient fault was reported.
	out, err := a.Debugger.CallTargetFunc(addr, args)
	a.Flush()
	return out, err
}

// invalidate drops the cached pages overlapping [addr, addr+n).
func (a *Accessor) invalidate(addr uint64, n int) {
	if a.lru == nil || n <= 0 || addr+uint64(n)-1 < addr {
		return
	}
	ps := uint64(a.cfg.PageSize)
	last := (addr + uint64(n) - 1) &^ (ps - 1)
	for base := addr &^ (ps - 1); ; base += ps {
		if el, ok := a.pages[base]; ok {
			delete(a.pages, base)
			a.lru.Remove(el)
			a.stats.Invalidations++
		}
		if base == last {
			break
		}
	}
}

// fault wraps a host read/write error in a classified Fault. Faults from a
// nested Accessor pass through unchanged.
func (a *Accessor) fault(op Op, addr uint64, n int, err error) error {
	if f, ok := err.(*Fault); ok {
		return f
	}
	kind := KindOther
	switch {
	case IsTransient(err):
		kind = KindTransient
	case !a.Debugger.ValidTargetAddr(addr, 1):
		kind = KindUnmapped
	case n > 0 && !a.Debugger.ValidTargetAddr(addr, n):
		kind = KindShort
	}
	return &Fault{Addr: addr, Len: n, Op: op, Kind: kind, Err: err}
}

var (
	_ dbgif.Debugger     = (*Accessor)(nil)
	_ dbgif.Fetcher      = (*Accessor)(nil)
	_ dbgif.Interrupter  = (*Accessor)(nil)
	_ dbgif.Capabilities = (*Accessor)(nil)
	_ dbgif.Wrapper      = (*Accessor)(nil)
)
