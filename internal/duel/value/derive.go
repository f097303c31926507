package value

import (
	"bytes"
	"strconv"
	"sync"
	"unsafe"
)

// Sym is a value's symbolic expression: an 8-byte handle on a derivation
// recorded in a SymStore, plus the precedence of its outermost operator so
// that compositions parenthesize exactly where needed. The paper observes
// that "the symbolic expression x[i] is computed 1000 times, even though it
// might be printed only once"; a handle makes each composition O(1), and
// text is rendered (SymStore.String) only for values that are printed or
// named in an error message.
//
// The zero Sym is the empty expression. Small non-negative integers live in
// the handle itself; every other handle is valid only until its store's
// next Reset.
type Sym struct {
	ref  uint32  // node or text index; the integer itself for symInt
	gen  uint16  // store generation of a node or text handle
	kind symKind // how ref is read
	prec uint8   // precedence of the outermost operator
}

type symKind uint8

const (
	symNone   symKind = iota
	symInt            // the integer ref
	symText           // texts[ref]
	symKept           // kept[ref]: outlives Reset
	symBinary         // a op b
	symPre            // op a
	symPost           // a op
	symIndex          // a[b]
	symWith           // a op b, both at postfix precedence
	symRoot           // a at postfix precedence: the root of a --> path
	symPath           // a, then a run of x identical steps b
	symCut            // a, then "->..." (maxPathSym)
	symCall           // a(b): b is a symArg list
	symArg            // a, b: a list of call arguments
)

// symNode is one derivation step. Its operands are handles on earlier
// nodes, so a composition costs one node whatever the operands' length.
type symNode struct {
	a, b Sym
	n    uint32 // rendered length (saturating)
	x    uint32 // operator text index; the run length of a symPath step
}

// MaxPathSym bounds the rendered text of one --> path, in bytes. A step
// that refers to the node itself ("head-->_") has the whole path as its
// name, so without the bound each level would double the path's length.
const MaxPathSym = 4096

// compressAt is the shortest run of identical --> steps rendered as
// "-->step[[n]]". The paper compresses "->a->a" chains to "-->a[[2]]", but
// its own examples print runs of up to three steps expanded, so the
// threshold here is three (see EXPERIMENTS.md T1 notes).
const compressAt = 3

const (
	chunkShift = 8
	chunkSize  = 1 << chunkShift // nodes per chunk: 6 KiB
	chunkMask  = chunkSize - 1
)

type chunk = [chunkSize]symNode

// chunkPool recycles the node chunks a Reset drops, so an evaluation as
// large as the last one allocates none. A node holds no pointers, and add
// writes a node before any handle can read it, so a recycled chunk needs
// no clearing. The pool empties across garbage collections, so an idle
// store keeps only its first chunk.
var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

// SymStore records the derivations of one evaluation. Each composition
// appends O(1) bytes: a node in a fixed-size chunk, so growing never copies
// (and never moves) a node. Atom texts are kept as strings, not copied; a
// small two-way cache gives a repeated AST name or operator one text slot
// per evaluation. It is indexed by the string's length and three of its
// bytes, not by its address: an operator spelling is a constant whose
// address the linker picks, so indexing by address would let two hot
// operators share a slot, and evict each other on every element, in some
// builds and not in others.
//
// Reset starts a new generation, keeps one chunk and returns the others to
// a pool shared by all stores. A handle from an earlier generation (of the
// last 65,535) panics when rendered instead of printing another value's
// text. The zero value is ready to use. A SymStore is not safe for
// concurrent use; each evaluator Env owns one.
type SymStore struct {
	gen    uint16
	chunks []*chunk
	n      uint32 // nodes in use
	texts  []string
	cache  [1 << cacheBits][2]textSlot

	// kept holds texts that outlive Reset (Keep), one slot per key.
	kept    []string
	keptIdx map[string]uint32

	scratch [2][]byte // Equal's render buffers

	// Renders counts the texts String produced.
	Renders int64
}

const cacheBits = 5

// textSlot remembers where a recent atom string went in texts.
type textSlot struct {
	p *byte
	n int
	i uint32
}

// Reset drops every handle of the current generation. The store keeps one
// node chunk and a small text table for the next evaluation.
func (st *SymStore) Reset() {
	if st.n == 0 && len(st.texts) == 0 {
		return
	}
	st.gen++
	if len(st.chunks) > 1 {
		for _, c := range st.chunks[1:] {
			chunkPool.Put(c)
		}
		clear(st.chunks[1:])
		st.chunks = st.chunks[:1]
	}
	st.n = 0
	if cap(st.texts) > chunkSize {
		st.texts = nil
	} else {
		clear(st.texts)
		st.texts = st.texts[:0]
	}
	st.cache = [len(st.cache)][2]textSlot{}
	for i, b := range st.scratch {
		if cap(b) > MaxPathSym {
			st.scratch[i] = nil
		}
	}
}

func (st *SymStore) handle(kind symKind, ref uint32, prec int) Sym {
	return Sym{ref: ref, gen: st.gen, kind: kind, prec: uint8(prec)}
}

func (st *SymStore) add(kind symKind, prec int, nd symNode) Sym {
	i := st.n
	c := int(i >> chunkShift)
	if c == len(st.chunks) {
		st.chunks = append(st.chunks, chunkPool.Get().(*chunk))
	}
	st.chunks[c][i&chunkMask] = nd
	st.n++
	return st.handle(kind, i, prec)
}

// check panics if s belongs to an earlier generation.
func (st *SymStore) check(s Sym) {
	if st == nil || s.gen != st.gen {
		panic("value: symbolic handle used after its evaluation ended")
	}
}

func (st *SymStore) node(s Sym) *symNode {
	st.check(s)
	return &st.chunks[s.ref>>chunkShift][s.ref&chunkMask]
}

func (st *SymStore) text(s Sym) string {
	st.check(s)
	return st.texts[s.ref]
}

// --- constructors ---

// Text returns an atom: a leaf symbolic value with the given text.
func (st *SymStore) Text(s string) Sym {
	p := unsafe.StringData(s)
	set := &st.cache[textKey(s)]
	for _, sl := range set {
		// Reset clears the cache, so a set slot (p != nil) is current.
		if sl.p != nil && sl.n == len(s) && (sl.p == p || st.texts[sl.i] == s) {
			return st.handle(symText, sl.i, PrecAtom)
		}
	}
	i := uint32(len(st.texts))
	st.texts = append(st.texts, s)
	set[1], set[0] = set[0], textSlot{p: p, n: len(s), i: i}
	return st.handle(symText, i, PrecAtom)
}

// textKey picks s's cache set from its length and its first, middle and
// last bytes (Fibonacci hashing).
func textKey(s string) uint64 {
	if s == "" {
		return 0
	}
	h := uint64(len(s)) | uint64(s[0])<<8 | uint64(s[len(s)/2])<<16 | uint64(s[len(s)-1])<<24
	return h * 0x9e3779b97f4a7c15 >> (64 - cacheBits)
}

// Int returns the atom of the decimal integer i.
func (st *SymStore) Int(i int64) Sym {
	if 0 <= i && i <= 1<<32-1 {
		return Sym{ref: uint32(i), kind: symInt, prec: PrecAtom}
	}
	return st.Text(strconv.FormatInt(i, 10))
}

func (st *SymStore) op(s string) uint32 { return st.Text(s).ref }

// Binary composes "a op b" at precedence prec (left-associative: the right
// operand needs parens at equal precedence).
func (st *SymStore) Binary(a Sym, op string, b Sym, prec int) Sym {
	n := st.lenAt(a, prec) + len(op) + st.lenAt(b, prec+1)
	return st.add(symBinary, prec, symNode{a: a, b: b, n: sat(n), x: st.op(op)})
}

// Pre composes a prefix application "op a".
func (st *SymStore) Pre(op string, a Sym) Sym {
	n := len(op) + st.lenAt(a, PrecUnary)
	return st.add(symPre, PrecUnary, symNode{a: a, n: sat(n), x: st.op(op)})
}

// Post composes a postfix application "a op".
func (st *SymStore) Post(a Sym, op string) Sym {
	n := st.lenAt(a, PrecPostfix) + len(op)
	return st.add(symPost, PrecPostfix, symNode{a: a, n: sat(n), x: st.op(op)})
}

// Index composes "base[idx]".
func (st *SymStore) Index(base, idx Sym) Sym {
	n := st.lenAt(base, PrecPostfix) + 2 + st.length(idx)
	return st.add(symIndex, PrecPostfix, symNode{a: base, b: idx, n: sat(n)})
}

// With composes "base op inner" at postfix precedence (the with operators
// '.' and '->').
func (st *SymStore) With(base Sym, op string, inner Sym) Sym {
	n := st.lenAt(base, PrecPostfix) + len(op) + st.lenAt(inner, PrecPostfix)
	return st.add(symWith, PrecPostfix, symNode{a: base, b: inner, n: sat(n), x: st.op(op)})
}

// Call composes "fn(arg1, arg2)".
func (st *SymStore) Call(fn Sym, args []Value) Sym {
	var list Sym
	n := 0
	for i, a := range args {
		n += st.length(a.Sym)
		if i > 0 {
			n += 2
		}
		list = st.add(symArg, PrecAtom, symNode{a: list, b: a.Sym, n: sat(n)})
	}
	n += st.lenAt(fn, PrecPostfix) + 2
	return st.add(symCall, PrecPostfix, symNode{a: fn, b: list, n: sat(n)})
}

// PathRoot returns the symbolic value of the root of a --> expansion: root
// at postfix precedence, marked so that the expansion's steps start a new
// path even when root is itself a --> path.
func (st *SymStore) PathRoot(root Sym) Sym {
	if root.kind == symPath || root.kind == symCut || root.prec < PrecPostfix {
		return st.add(symRoot, PrecPostfix, symNode{a: root, n: sat(st.lenAt(root, PrecPostfix))})
	}
	return root
}

// Step returns the path of the child reached from the node at path parent
// by the step expression step. Runs of compressAt or more identical steps
// render as "-->step[[n]]"; a path that would pass MaxPathSym at the start
// of a run ends in "->..." instead, and so do all its descendants. Step is
// O(1): a step that continues its parent's run replaces it.
func (st *SymStore) Step(parent, step Sym) Sym {
	if parent.kind == symCut {
		return parent
	}
	sl := st.length(step)
	if parent.kind == symPath {
		pn := st.node(parent)
		if st.Equal(pn.b, step) {
			prefix := int(pn.n) - runLen(int(pn.x), sl)
			run := int(pn.x) + 1
			return st.add(symPath, PrecPostfix, symNode{a: pn.a, b: step, n: sat(prefix + runLen(run, sl)), x: uint32(run)})
		}
	}
	pl := st.lenAt(parent, PrecPostfix)
	if pl+sl > MaxPathSym {
		return st.add(symCut, PrecPostfix, symNode{a: parent, n: sat(pl + len("->..."))})
	}
	return st.add(symPath, PrecPostfix, symNode{a: parent, b: step, n: sat(pl + runLen(1, sl)), x: 1})
}

// runLen is the rendered length of a run of run steps of length sl.
func runLen(run, sl int) int {
	if run < compressAt {
		return run * (len("->") + sl)
	}
	return len("-->") + sl + len("[[") + decLen(uint64(run)) + len("]]")
}

// Keep renders s into a text that outlives Reset, stored under key: a
// later Keep with the same key reuses the slot. DropKept forgets them all.
func (st *SymStore) Keep(key string, s Sym) Sym {
	if s.kind == symNone {
		return s
	}
	text := st.String(s)
	i, ok := st.keptIdx[key]
	if !ok {
		if st.keptIdx == nil {
			st.keptIdx = make(map[string]uint32)
		}
		i = uint32(len(st.kept))
		st.kept = append(st.kept, "")
		st.keptIdx[key] = i
	}
	st.kept[i] = text
	return Sym{ref: i, kind: symKept, prec: s.prec}
}

// DropKept forgets every text Keep stored.
func (st *SymStore) DropKept() {
	st.kept, st.keptIdx = nil, nil
}

// --- measuring, comparing and rendering ---

// length returns the length of s's rendered text.
func (st *SymStore) length(s Sym) int {
	switch s.kind {
	case symNone:
		return 0
	case symInt:
		return decLen(uint64(s.ref))
	case symText:
		return len(st.text(s))
	case symKept:
		return len(st.kept[s.ref])
	}
	return int(st.node(s).n)
}

// lenAt is length with the parentheses s gets as an operand at precedence min.
func (st *SymStore) lenAt(s Sym, min int) int {
	if int(s.prec) < min {
		return st.length(s) + 2
	}
	return st.length(s)
}

// Equal reports whether a and b render to the same text. It is O(1) unless
// their lengths agree, which compositions rarely do.
func (st *SymStore) Equal(a, b Sym) bool {
	if a == b {
		return true
	}
	if st.length(a) != st.length(b) {
		return false
	}
	if a.kind == symText && b.kind == symText {
		return st.text(a) == st.text(b)
	}
	st.scratch[0] = st.appendSym(st.scratch[0][:0], a)
	st.scratch[1] = st.appendSym(st.scratch[1][:0], b)
	return bytes.Equal(st.scratch[0], st.scratch[1])
}

// String renders s, counting the rendering in Renders. A nil store
// renders the handles that need none: the empty expression and integers.
func (st *SymStore) String(s Sym) string {
	if s.kind == symNone {
		return ""
	}
	if st != nil {
		st.Renders++
	}
	switch s.kind {
	case symInt:
		return strconv.FormatUint(uint64(s.ref), 10)
	case symText:
		return st.text(s)
	case symKept:
		return st.kept[s.ref]
	}
	return string(st.appendSym(make([]byte, 0, st.length(s)), s))
}

func (st *SymStore) appendAt(b []byte, s Sym, min int) []byte {
	if int(s.prec) < min {
		b = append(b, '(')
		b = st.appendSym(b, s)
		return append(b, ')')
	}
	return st.appendSym(b, s)
}

func (st *SymStore) appendSym(b []byte, s Sym) []byte {
	switch s.kind {
	case symNone:
		return b
	case symInt:
		return strconv.AppendUint(b, uint64(s.ref), 10)
	case symText:
		return append(b, st.text(s)...)
	case symKept:
		return append(b, st.kept[s.ref]...)
	}
	nd := st.node(s)
	switch s.kind {
	case symBinary:
		b = st.appendAt(b, nd.a, int(s.prec))
		b = append(b, st.texts[nd.x]...)
		return st.appendAt(b, nd.b, int(s.prec)+1)
	case symPre:
		b = append(b, st.texts[nd.x]...)
		return st.appendAt(b, nd.a, PrecUnary)
	case symPost:
		b = st.appendAt(b, nd.a, PrecPostfix)
		return append(b, st.texts[nd.x]...)
	case symIndex:
		b = st.appendAt(b, nd.a, PrecPostfix)
		b = append(b, '[')
		b = st.appendSym(b, nd.b)
		return append(b, ']')
	case symWith:
		b = st.appendAt(b, nd.a, PrecPostfix)
		b = append(b, st.texts[nd.x]...)
		return st.appendAt(b, nd.b, PrecPostfix)
	case symRoot:
		return st.appendAt(b, nd.a, PrecPostfix)
	case symPath:
		b = st.appendAt(b, nd.a, PrecPostfix)
		if nd.x >= compressAt {
			b = append(b, "-->"...)
			b = st.appendSym(b, nd.b)
			b = append(b, "[["...)
			b = strconv.AppendUint(b, uint64(nd.x), 10)
			return append(b, "]]"...)
		}
		for range nd.x {
			b = append(b, "->"...)
			b = st.appendSym(b, nd.b)
		}
		return b
	case symCut:
		b = st.appendAt(b, nd.a, PrecPostfix)
		return append(b, "->..."...)
	case symCall:
		b = st.appendAt(b, nd.a, PrecPostfix)
		b = append(b, '(')
		b = st.appendSym(b, nd.b)
		return append(b, ')')
	case symArg:
		if nd.a.kind != symNone {
			b = st.appendSym(b, nd.a)
			b = append(b, ", "...)
		}
		return st.appendSym(b, nd.b)
	}
	panic("value: bad symbolic handle")
}

// sat saturates a rendered length to the node's field.
func sat(n int) uint32 {
	if n > 1<<32-1 {
		return 1<<32 - 1
	}
	return uint32(n)
}

// decLen is the number of decimal digits of u.
func decLen(u uint64) int {
	n := 1
	for u >= 10 {
		u /= 10
		n++
	}
	return n
}
