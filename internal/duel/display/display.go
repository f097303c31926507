// Package display renders DUEL results: each produced value prints as
//
//	symbolic = value
//
// e.g. "x[3] = 7" or "hash[1]->name = \"x\"", per the paper. Values format
// by C type: chars as character literals, char pointers as the pointed-to
// string, other pointers in hex, enums by enumerator name, structs and
// arrays with gdb-style braces.
package display

import (
	"fmt"
	"strconv"
	"strings"

	"duel/internal/ctype"
	"duel/internal/duel/value"
)

// Printer formats values and result lines.
type Printer struct {
	Ctx *value.Ctx
	// Symbolic enables "symbolic = value" lines; with it off only the
	// value prints (the paper's early examples).
	Symbolic bool
	// MaxString bounds strings read from the target.
	MaxString int
	// MaxElems bounds array elements printed.
	MaxElems int
	// MaxDepth bounds nested aggregate printing.
	MaxDepth int

	buf [64]byte // readCString's fetch buffer
}

// New returns a Printer with the standard limits.
func New(ctx *value.Ctx) *Printer {
	return &Printer{Ctx: ctx, Symbolic: true, MaxString: 200, MaxElems: 24, MaxDepth: 4}
}

// Line renders one produced value as an output line.
func (p *Printer) Line(v value.Value) (string, error) {
	text, err := p.Format(v)
	if err != nil {
		return "", err
	}
	if !p.Symbolic {
		return text, nil
	}
	sym := p.Ctx.Syms.String(v.Sym)
	if sym == "" || sym == text {
		return text, nil
	}
	return sym + " = " + text, nil
}

// Format renders the value of v (loading lvalues from the target).
func (p *Printer) Format(v value.Value) (string, error) {
	return p.format(v, 0)
}

func (p *Printer) format(v value.Value, depth int) (string, error) {
	if v.IsPoison() {
		// An error value (Options.Eval.ErrorValues): print the fault in
		// place of the element, e.g. "x[3]->p = <unmapped address
		// 0x16820>"; the symbolic side comes from Line as usual.
		return "<" + v.ErrText() + ">", nil
	}
	if v.FrameScope > 0 {
		return fmt.Sprintf("<frame %d>", v.FrameScope-1), nil
	}
	st := ctype.Strip(v.Type)
	switch t := st.(type) {
	case *ctype.Array:
		if !v.IsLvalue {
			return "<array>", nil
		}
		return p.formatArray(v, t, depth)
	case *ctype.Struct:
		return p.formatStruct(v, t, depth)
	case *ctype.Func:
		return fmt.Sprintf("<function at 0x%x>", v.Addr), nil
	}
	rv, err := p.Ctx.Rval(v)
	if err != nil {
		return "", err
	}
	st = ctype.Strip(rv.Type)
	switch {
	case st.Kind() == ctype.KindVoid:
		return "void", nil
	case ctype.IsFloat(st):
		return formatFloat(rv.AsFloat()), nil
	case st.Kind() == ctype.KindChar || st.Kind() == ctype.KindSChar || st.Kind() == ctype.KindUChar:
		return formatChar(byte(rv.AsUint())), nil
	case st.Kind() == ctype.KindEnum:
		e := st.(*ctype.Enum)
		iv := rv.AsInt()
		for _, c := range e.Consts {
			if c.Value == iv {
				return c.Name, nil
			}
		}
		return strconv.FormatInt(iv, 10), nil
	case ctype.IsPointer(st):
		return p.formatPointer(rv)
	case ctype.IsInteger(st):
		if ctype.IsSigned(st) {
			return strconv.FormatInt(rv.AsInt(), 10), nil
		}
		return strconv.FormatUint(rv.AsUint(), 10), nil
	}
	return "", fmt.Errorf("duel: cannot display value of type %s", v.Type)
}

func (p *Printer) formatPointer(rv value.Value) (string, error) {
	addr := rv.AsUint()
	elem, _ := ctype.PointerElem(rv.Type)
	if addr != 0 && elem != nil && isCharType(elem) {
		if s, ok := p.readCString(addr); ok {
			return strconv.Quote(s), nil
		}
	}
	return "0x" + strconv.FormatUint(addr, 16), nil
}

// readCString reads the NUL-terminated string at addr, at most MaxString
// bytes of it, a chunk at a time into the Printer's buffer. A chunk that
// faults (it may run past the NUL into unmapped memory) is read again a
// byte at a time, so the string still ends at its NUL and an unmapped byte
// before the NUL still fails the read.
func (p *Printer) readCString(addr uint64) (string, bool) {
	var sb strings.Builder
	bytewise := 0 // bytes of a faulted chunk still to read one at a time
	for n := 0; n < p.MaxString; {
		chunk := p.buf[:min(len(p.buf), p.MaxString-n)]
		if bytewise > 0 {
			chunk = chunk[:1]
		}
		if p.Ctx.D.FetchTargetBytes(addr+uint64(n), chunk) != nil {
			if len(chunk) == 1 {
				return "", false
			}
			bytewise = len(chunk)
			continue
		}
		if bytewise > 0 {
			bytewise--
		}
		if i := indexByte(chunk, 0); i >= 0 {
			sb.Write(chunk[:i])
			return sb.String(), true
		}
		sb.Write(chunk)
		n += len(chunk)
	}
	return sb.String(), true // truncated but displayable
}

func (p *Printer) formatArray(v value.Value, t *ctype.Array, depth int) (string, error) {
	if isCharType(t.Elem) {
		// Char arrays display as strings.
		n := t.Len
		if n > p.MaxString {
			n = p.MaxString
		}
		b, err := p.Ctx.D.GetTargetBytes(v.Addr, n)
		if err != nil {
			return "", &value.MemError{Sym: p.Ctx.Syms.String(v.Sym), Addr: v.Addr, Err: err}
		}
		if i := indexByte(b, 0); i >= 0 {
			b = b[:i]
		}
		return strconv.Quote(string(b)), nil
	}
	if depth >= p.MaxDepth {
		return "{...}", nil
	}
	var sb strings.Builder
	sb.WriteByte('{')
	n := t.Len
	truncated := false
	if n > p.MaxElems {
		n = p.MaxElems
		truncated = true
	}
	esize := t.Elem.Size()
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		ev := value.Lvalue(t.Elem, v.Addr+uint64(i*esize))
		s, err := p.format(ev, depth+1)
		if err != nil {
			return "", err
		}
		sb.WriteString(s)
	}
	if truncated {
		sb.WriteString(", ...")
	}
	sb.WriteByte('}')
	return sb.String(), nil
}

func (p *Printer) formatStruct(v value.Value, t *ctype.Struct, depth int) (string, error) {
	if t.Incomplete {
		return "<incomplete " + t.String() + ">", nil
	}
	if depth >= p.MaxDepth {
		return "{...}", nil
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i := range t.Fields {
		f := &t.Fields[i]
		if i > 0 {
			sb.WriteString(", ")
		}
		fv, err := p.Ctx.Field(v, f.Name)
		if err != nil {
			return "", err
		}
		s, err := p.format(fv, depth+1)
		if err != nil {
			return "", err
		}
		sb.WriteString(f.Name + " = " + s)
	}
	sb.WriteByte('}')
	return sb.String(), nil
}

func isCharType(t ctype.Type) bool {
	switch ctype.Strip(t).Kind() {
	case ctype.KindChar, ctype.KindSChar, ctype.KindUChar:
		return true
	}
	return false
}

func indexByte(b []byte, c byte) int {
	for i, x := range b {
		if x == c {
			return i
		}
	}
	return -1
}

func formatFloat(f float64) string {
	s := strconv.FormatFloat(f, 'g', -1, 64)
	return s
}

func formatChar(b byte) string {
	if b >= 0x20 && b < 0x7f {
		return "'" + string(rune(b)) + "'"
	}
	switch b {
	case '\n':
		return `'\n'`
	case '\t':
		return `'\t'`
	case '\r':
		return `'\r'`
	case 0:
		return `'\0'`
	}
	return fmt.Sprintf("'\\%03o'", b)
}
