// Static scan-stripe planning for batch warm passes. ScanStripes answers one
// question — before any member of a serve batch runs, which target ranges
// will the batch's queries scan? — so one PrefetchRanges pass can warm the
// union.
//
// The planner is deliberately conservative and purely advisory. It only
// recognizes the statically decidable shape: an index node whose base is a
// bare target-variable name (no alias, so the evaluation will resolve it the
// same way) of array or pointer-decayed-from-array type, subscripted by a
// literal constant range. Everything else contributes no stripe. Wrong or
// missing predictions are harmless: Prefetch is semantics-free (unmapped or
// faulting stripes are skipped, later reads behave exactly as without it),
// so the worst case is a wasted or absent warm pass, never a wrong answer.
package core

import (
	"duel/internal/ctype"
	"duel/internal/duel/ast"
	"duel/internal/memio"
)

// maxPlannedStripe bounds one planned stripe so a pathological query cannot
// turn the warm pass into a bulk copy of the target.
const maxPlannedStripe = 1 << 20

// ScanStripes returns the target ranges the statically recognizable scans of
// n will read. Gated on Options.Prefetch; returns nil when nothing
// qualifies.
func ScanStripes(e *Env, n *ast.Node) []memio.Range {
	if !e.Opts.Prefetch || n == nil {
		return nil
	}
	var out []memio.Range
	var walk func(n *ast.Node)
	walk = func(n *ast.Node) {
		if n == nil {
			return
		}
		if r, ok := e.stripeOf(n); ok {
			out = append(out, r)
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(n)
	return mergeRanges(out)
}

// stripeOf recognizes one statically plannable scan: name[lo..hi] or
// name[..hi] over a target array (or pointer, resolved to its current
// pointee) with literal bounds.
func (e *Env) stripeOf(n *ast.Node) (memio.Range, bool) {
	if n.Op != ast.OpIndex || len(n.Kids) != 2 {
		return memio.Range{}, false
	}
	base, rng := n.Kids[0], n.Kids[1]
	if base.Op != ast.OpName {
		return memio.Range{}, false
	}
	var lo, hi int64
	switch rng.Op {
	case ast.OpTo:
		loK, hiK := rng.Kids[0], rng.Kids[1]
		if loK.Op != ast.OpConst || hiK.Op != ast.OpConst {
			return memio.Range{}, false
		}
		lo, hi = int64(loK.Int), int64(hiK.Int)
	case ast.OpToPrefix:
		hiK := rng.Kids[0]
		if hiK.Op != ast.OpConst {
			return memio.Range{}, false
		}
		lo, hi = 0, int64(hiK.Int)-1
	default:
		return memio.Range{}, false
	}
	if hi < lo {
		return memio.Range{}, false
	}
	// A name the evaluation would resolve to anything but the target
	// variable (an alias today; with-scopes don't exist yet at plan time)
	// is not plannable from here.
	if _, aliased := e.Alias(base.Name); aliased {
		return memio.Range{}, false
	}
	vi, ok := e.Ctx.D.GetTargetVariable(base.Name)
	if !ok {
		return memio.Range{}, false
	}
	st := ctype.Strip(vi.Type)
	var elem ctype.Type
	addr := vi.Addr
	switch t := st.(type) {
	case *ctype.Array:
		elem = t.Elem
	case *ctype.Pointer:
		// The scan will read through the pointer's current value; planning
		// would need that read. Skip.
		return memio.Range{}, false
	default:
		return memio.Range{}, false
	}
	size := int64(elem.Size())
	if size <= 0 {
		return memio.Range{}, false
	}
	length := (hi - lo + 1) * size
	if length > maxPlannedStripe {
		length = maxPlannedStripe
	}
	return memio.Range{Addr: addr + uint64(lo)*uint64(size), Len: int(length)}, true
}

// mergeRanges coalesces overlapping or adjacent stripes in place.
func mergeRanges(rs []memio.Range) []memio.Range {
	if len(rs) < 2 {
		return rs
	}
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j-1].Addr > rs[j].Addr; j-- {
			rs[j-1], rs[j] = rs[j], rs[j-1]
		}
	}
	out := rs[:1]
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		if r.Addr <= last.Addr+uint64(last.Len) {
			if end := r.Addr + uint64(r.Len); end > last.Addr+uint64(last.Len) {
				last.Len = int(end - last.Addr)
			}
			continue
		}
		out = append(out, r)
	}
	return out
}
