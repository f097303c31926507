package value

import (
	"strconv"
	"unsafe"
)

// SymArena is an append-only string arena for symbolic-expression
// composition. The paper observes that "the symbolic computation often costs
// more than the value computation"; once the evaluator's locks are gone the
// cost is almost entirely the per-element string concatenations of indexSym,
// binSym and friends — one garbage string per produced value. The arena
// replaces them: compositions are written into a shared chunk and returned
// as strings aliasing it, so a bulk scan pays one allocation per chunk
// instead of one per element.
//
// Safety invariant: every byte region is granted exactly once and written
// only by its grantee before the string over it is returned; nothing is ever
// rewritten or reused. Chunks stay reachable as long as any string built in
// them is, and are collected together afterwards. The zero value is ready to
// use. A SymArena is not safe for concurrent use; each evaluator Env owns
// one, under the session's evaluation lock like the rest of its state.
type SymArena struct {
	buf []byte // current chunk; [len:cap] is unwritten
}

// symArenaChunk is the chunk size. Small enough that a handful of live
// strings pin little dead space, large enough to amortize allocation across
// hundreds of typical "x[1234]"-sized compositions.
const symArenaChunk = 4096

// grab returns an exclusive n-byte region, len n, cap n (so a buggy append
// cannot silently run into a later grant).
func (a *SymArena) grab(n int) []byte {
	if cap(a.buf)-len(a.buf) < n {
		size := symArenaChunk
		if n > size {
			size = n
		}
		a.buf = make([]byte, 0, size)
	}
	off := len(a.buf)
	a.buf = a.buf[:off+n]
	return a.buf[off : off+n : off+n]
}

// str views a fully written grant as a string without copying. Sound because
// the arena never rewrites granted bytes.
func str(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// symLen is the rendered length of s at minimum precedence min (At's
// parenthesization, counted instead of built).
func symLen(s Sym, min int) int {
	if s.Prec < min {
		return len(s.S) + 2
	}
	return len(s.S)
}

// appendSym appends s to b, parenthesized exactly as Sym.At would.
func appendSym(b []byte, s Sym, min int) []byte {
	if s.Prec < min {
		b = append(b, '(')
		b = append(b, s.S...)
		return append(b, ')')
	}
	return append(b, s.S...)
}

// Binary composes BinarySym(x, op, y, prec) in the arena.
func (a *SymArena) Binary(x Sym, op string, y Sym, prec int) Sym {
	b := a.grab(symLen(x, prec) + len(op) + symLen(y, prec+1))[:0]
	b = appendSym(b, x, prec)
	b = append(b, op...)
	b = appendSym(b, y, prec+1)
	return Sym{S: str(b), Prec: prec}
}

// Pre composes a prefix application "op x".
func (a *SymArena) Pre(op string, x Sym) Sym {
	b := a.grab(len(op) + symLen(x, PrecUnary))[:0]
	b = append(b, op...)
	b = appendSym(b, x, PrecUnary)
	return Sym{S: str(b), Prec: PrecUnary}
}

// Post composes a postfix application "x op".
func (a *SymArena) Post(x Sym, op string) Sym {
	b := a.grab(symLen(x, PrecPostfix) + len(op))[:0]
	b = appendSym(b, x, PrecPostfix)
	b = append(b, op...)
	return Sym{S: str(b), Prec: PrecPostfix}
}

// Index composes "base[idx]".
func (a *SymArena) Index(base, idx Sym) Sym {
	b := a.grab(symLen(base, PrecPostfix) + len(idx.S) + 2)[:0]
	b = appendSym(b, base, PrecPostfix)
	b = append(b, '[')
	b = append(b, idx.S...)
	b = append(b, ']')
	return Sym{S: str(b), Prec: PrecPostfix}
}

// With composes "base op inner" at postfix precedence (the with operators
// '.', '->').
func (a *SymArena) With(base Sym, op string, inner Sym) Sym {
	b := a.grab(symLen(base, PrecPostfix) + len(op) + symLen(inner, PrecPostfix))[:0]
	b = appendSym(b, base, PrecPostfix)
	b = append(b, op...)
	b = appendSym(b, inner, PrecPostfix)
	return Sym{S: str(b), Prec: PrecPostfix}
}

// smallInts caches the decimal strings of the integers scans produce most
// (subscripts, comparison results, typical payloads), so the per-element
// integer atom costs no allocation for typical array sizes.
var smallInts = func() [4096]string {
	var t [4096]string
	for i := range t {
		t[i] = strconv.FormatInt(int64(i), 10)
	}
	return t
}()

// Itoa is strconv.FormatInt(i, 10) with the small-integer fast path. Shared
// by every backend so their symbolic output allocates identically.
func Itoa(i int64) string {
	if 0 <= i && i < int64(len(smallInts)) {
		return smallInts[i]
	}
	return strconv.FormatInt(i, 10)
}
