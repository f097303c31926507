// Package lexer tokenizes DUEL source: the full C token set extended with
// the DUEL operators (.., >?, ==?, -->, =>, :=, #/, @, #, and friends) and
// "##" comments, as in the paper's hand-written lexer.
package lexer

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Kind identifies a token class.
type Kind int

// Token kinds. Operator kinds are named for their spelling.
const (
	EOF Kind = iota
	Ident
	IntLit
	FloatLit
	CharLit
	StringLit
	Keyword

	LParen   // (
	RParen   // )
	LBracket // [
	RBracket // ]
	LBrace   // {
	RBrace   // }
	Comma    // ,
	Semi     // ;
	Colon    // :
	Question // ?
	Ellipsis // ...

	Dot     // .
	Arrow   // ->
	Expand  // -->
	BExpand // -->>

	Inc // ++
	Dec // --

	Plus    // +
	Minus   // -
	Star    // *
	Slash   // /
	Percent // %
	Amp     // &
	Pipe    // |
	Caret   // ^
	Tilde   // ~
	Not     // !
	Shl     // <<
	Shr     // >>

	Lt // <
	Gt // >
	Le // <=
	Ge // >=
	Eq // ==
	Ne // !=

	IfLt // <?
	IfGt // >?
	IfLe // <=?
	IfGe // >=?
	IfEq // ==?
	IfNe // !=?

	Assign    // =
	AddAssign // +=
	SubAssign // -=
	MulAssign // *=
	DivAssign // /=
	ModAssign // %=
	AndAssign // &=
	OrAssign  // |=
	XorAssign // ^=
	ShlAssign // <<=
	ShrAssign // >>=

	AndAnd // &&
	OrOr   // ||

	DotDot  // ..
	At      // @
	Hash    // #
	Imply   // =>
	Define  // :=
	CountOf // #/
	SumOf   // +/
	AllOf   // &&/
	AnyOf   // ||/
)

var kindNames = map[Kind]string{
	EOF: "end of input", Ident: "identifier", IntLit: "integer literal",
	FloatLit: "float literal", CharLit: "char literal", StringLit: "string literal",
	Keyword: "keyword",
	LParen:  "(", RParen: ")", LBracket: "[", RBracket: "]", LBrace: "{", RBrace: "}",
	Comma: ",", Semi: ";", Colon: ":", Question: "?", Ellipsis: "...",
	Dot: ".", Arrow: "->", Expand: "-->", BExpand: "-->>",
	Inc: "++", Dec: "--",
	Plus: "+", Minus: "-", Star: "*", Slash: "/", Percent: "%",
	Amp: "&", Pipe: "|", Caret: "^", Tilde: "~", Not: "!",
	Shl: "<<", Shr: ">>",
	Lt: "<", Gt: ">", Le: "<=", Ge: ">=", Eq: "==", Ne: "!=",
	IfLt: "<?", IfGt: ">?", IfLe: "<=?", IfGe: ">=?", IfEq: "==?", IfNe: "!=?",
	Assign: "=", AddAssign: "+=", SubAssign: "-=", MulAssign: "*=", DivAssign: "/=",
	ModAssign: "%=", AndAssign: "&=", OrAssign: "|=", XorAssign: "^=",
	ShlAssign: "<<=", ShrAssign: ">>=",
	AndAnd: "&&", OrOr: "||",
	DotDot: "..", At: "@", Hash: "#", Imply: "=>", Define: ":=",
	CountOf: "#/", SumOf: "+/", AllOf: "&&/", AnyOf: "||/",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Keywords recognized by the DUEL and micro-C parsers.
var keywords = map[string]bool{
	"if": true, "else": true, "for": true, "while": true, "do": true,
	"sizeof": true, "struct": true, "union": true, "enum": true,
	"int": true, "char": true, "long": true, "short": true,
	"unsigned": true, "signed": true, "float": true, "double": true,
	"void": true, "return": true, "break": true, "continue": true,
	"switch": true, "case": true, "default": true,
	"typedef": true, "const": true, "volatile": true, "static": true,
}

// Pos locates a token in its source line (1-based).
type Pos struct {
	Off  int
	Line int
	Col  int
}

// Token is one lexical token.
type Token struct {
	Kind Kind
	Pos  Pos
	// Text is the exact source spelling.
	Text string
	// Int holds the value of IntLit and CharLit tokens.
	Int uint64
	// Float holds the value of FloatLit tokens.
	Float float64
	// Unsigned and Long record integer-literal suffixes.
	Unsigned bool
	Long     bool
	// Str holds the decoded value of StringLit tokens.
	Str string
}

// Is reports whether the token is the given keyword.
func (t Token) Is(kw string) bool { return t.Kind == Keyword && t.Text == kw }

func (t Token) String() string {
	switch t.Kind {
	case Ident, Keyword, IntLit, FloatLit, CharLit, StringLit:
		return fmt.Sprintf("%q", t.Text)
	default:
		return fmt.Sprintf("%q", t.Kind.String())
	}
}

// Error is a lexical error with position information.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%d:%d: %s", e.Pos.Line, e.Pos.Col, e.Msg) }

// Lexer scans a source string into tokens.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// New returns a Lexer over src.
func New(src string) *Lexer { return &Lexer{src: src, line: 1, col: 1} }

// Tokenize scans all of src into a token slice ending with an EOF token.
func Tokenize(src string) ([]Token, error) {
	lx := New(src)
	// A token averages more than two bytes of source; one allocation covers
	// typical input, and append still grows the rare denser one.
	toks := make([]Token, 0, len(src)/2+4)
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}

func (l *Lexer) errf(pos Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (l *Lexer) peekAt(i int) byte {
	if l.off+i < len(l.src) {
		return l.src[l.off+i]
	}
	return 0
}

func (l *Lexer) advance(n int) {
	for i := 0; i < n; i++ {
		if l.src[l.off] == '\n' {
			l.line++
			l.col = 1
		} else {
			l.col++
		}
		l.off++
	}
}

func (l *Lexer) pos() Pos { return Pos{Off: l.off, Line: l.line, Col: l.col} }

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}
func isIdent(c byte) bool { return isIdentStart(c) || c >= '0' && c <= '9' }
func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isHex(c byte) bool {
	return isDigit(c) || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// skipSpace consumes whitespace and comments: /* */, //, and DUEL's ##.
func (l *Lexer) skipSpace() error {
	for l.off < len(l.src) {
		c := l.src[l.off]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f':
			l.advance(1)
		case c == '/' && l.peekAt(1) == '*':
			start := l.pos()
			l.advance(2)
			for {
				if l.off >= len(l.src) {
					return l.errf(start, "unterminated comment")
				}
				if l.src[l.off] == '*' && l.peekAt(1) == '/' {
					l.advance(2)
					break
				}
				l.advance(1)
			}
		case c == '/' && l.peekAt(1) == '/', c == '#' && l.peekAt(1) == '#':
			for l.off < len(l.src) && l.src[l.off] != '\n' {
				l.advance(1)
			}
		default:
			return nil
		}
	}
	return nil
}

// Next scans and returns the next token.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpace(); err != nil {
		return Token{}, err
	}
	pos := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: EOF, Pos: pos}, nil
	}
	c := l.src[l.off]
	switch {
	case isIdentStart(c):
		start := l.off
		for l.off < len(l.src) && isIdent(l.src[l.off]) {
			l.advance(1)
		}
		text := l.src[start:l.off]
		kind := Ident
		if keywords[text] {
			kind = Keyword
		}
		return Token{Kind: kind, Pos: pos, Text: text}, nil
	case isDigit(c), c == '.' && isDigit(l.peekAt(1)):
		return l.scanNumber(pos)
	case c == '\'':
		return l.scanChar(pos)
	case c == '"':
		return l.scanString(pos)
	}
	if kind, n := scanOp(l.src[l.off:]); n > 0 {
		text := l.src[l.off : l.off+n]
		l.advance(n)
		return Token{Kind: kind, Pos: pos, Text: text}, nil
	}
	return Token{}, l.errf(pos, "unexpected character %q", string(c))
}

// opsByFirst lists the operator spellings by their first byte, longest
// first, so scanOp tries a handful of candidates instead of every operator.
// It is built once from kindNames, the one table of spellings.
var opsByFirst = func() (idx [256][]opSpelling) {
	for k := LParen; k <= AnyOf; k++ {
		text := kindNames[k]
		idx[text[0]] = append(idx[text[0]], opSpelling{text, k})
	}
	for _, ops := range idx {
		slices.SortStableFunc(ops, func(a, b opSpelling) int { return len(b.text) - len(a.text) })
	}
	return idx
}()

type opSpelling struct {
	text string
	kind Kind
}

// scanOp matches the operator at the start of s, longest spelling first, and
// returns its kind and length; n == 0 means s does not start with one. The
// reductions "+/", "&&/", "||/" and "#/" never swallow the start of a
// comment: "a+/*c*/b" is "+" then a comment.
func scanOp(s string) (kind Kind, n int) {
	for _, op := range opsByFirst[s[0]] {
		if n = len(op.text); !strings.HasPrefix(s, op.text) {
			continue
		}
		if op.text[n-1] == '/' && n < len(s) && (s[n] == '*' || s[n] == '/') {
			continue
		}
		return op.kind, n
	}
	return 0, 0
}

func (l *Lexer) scanNumber(pos Pos) (Token, error) {
	start := l.off
	isFloat := false
	if l.src[l.off] == '0' && (l.peekAt(1) == 'x' || l.peekAt(1) == 'X') {
		l.advance(2)
		n := 0
		for l.off < len(l.src) && isHex(l.src[l.off]) {
			l.advance(1)
			n++
		}
		if n == 0 {
			return Token{}, l.errf(pos, "malformed hex literal")
		}
	} else {
		for l.off < len(l.src) && isDigit(l.src[l.off]) {
			l.advance(1)
		}
		// A '.' begins a fraction only if not the ".." operator.
		if l.off < len(l.src) && l.src[l.off] == '.' && l.peekAt(1) != '.' {
			isFloat = true
			l.advance(1)
			for l.off < len(l.src) && isDigit(l.src[l.off]) {
				l.advance(1)
			}
		}
		if l.off < len(l.src) && (l.src[l.off] == 'e' || l.src[l.off] == 'E') {
			if next := l.peekAt(1); isDigit(next) || (next == '+' || next == '-') && isDigit(l.peekAt(2)) {
				isFloat = true
				l.advance(1)
				if l.src[l.off] == '+' || l.src[l.off] == '-' {
					l.advance(1)
				}
				for l.off < len(l.src) && isDigit(l.src[l.off]) {
					l.advance(1)
				}
			}
		}
	}
	numEnd := l.off
	var unsigned, long bool
	for l.off < len(l.src) {
		switch l.src[l.off] {
		case 'u', 'U':
			unsigned = true
			l.advance(1)
			continue
		case 'l', 'L':
			long = true
			l.advance(1)
			continue
		}
		break
	}
	text := l.src[start:l.off]
	num := l.src[start:numEnd]
	if isFloat {
		f, err := strconv.ParseFloat(num, 64)
		if err != nil {
			return Token{}, l.errf(pos, "malformed float literal %q", text)
		}
		return Token{Kind: FloatLit, Pos: pos, Text: text, Float: f}, nil
	}
	// C's rule: a 0x prefix is hex, any other leading 0 octal — every digit
	// of which must be below 8, so "078" is an error, not 7.
	digits, base := num, 10
	switch {
	case len(num) > 1 && num[0] == '0' && (num[1] == 'x' || num[1] == 'X'):
		digits, base = num[2:], 16
	case len(num) > 1 && num[0] == '0':
		digits, base = num[1:], 8
	}
	v, err := strconv.ParseUint(digits, base, 64)
	if err != nil {
		return Token{}, l.errf(pos, "malformed integer literal %q", text)
	}
	return Token{Kind: IntLit, Pos: pos, Text: text, Int: v, Unsigned: unsigned, Long: long}, nil
}

func (l *Lexer) scanEscape(pos Pos) (byte, error) {
	l.advance(1) // backslash
	if l.off >= len(l.src) {
		return 0, l.errf(pos, "unterminated escape")
	}
	c := l.src[l.off]
	switch c {
	case 'n':
		l.advance(1)
		return '\n', nil
	case 't':
		l.advance(1)
		return '\t', nil
	case 'r':
		l.advance(1)
		return '\r', nil
	case '0', '1', '2', '3', '4', '5', '6', '7':
		v := 0
		for i := 0; i < 3 && l.off < len(l.src) && l.src[l.off] >= '0' && l.src[l.off] <= '7'; i++ {
			v = v*8 + int(l.src[l.off]-'0')
			l.advance(1)
		}
		return byte(v), nil
	case 'x':
		l.advance(1)
		v := 0
		n := 0
		for l.off < len(l.src) && isHex(l.src[l.off]) {
			d := l.src[l.off]
			switch {
			case isDigit(d):
				v = v*16 + int(d-'0')
			case d >= 'a':
				v = v*16 + int(d-'a'+10)
			default:
				v = v*16 + int(d-'A'+10)
			}
			l.advance(1)
			n++
		}
		if n == 0 {
			return 0, l.errf(pos, "malformed hex escape")
		}
		return byte(v), nil
	case 'a':
		l.advance(1)
		return 7, nil
	case 'b':
		l.advance(1)
		return 8, nil
	case 'f':
		l.advance(1)
		return 12, nil
	case 'v':
		l.advance(1)
		return 11, nil
	case '\\', '\'', '"', '?':
		l.advance(1)
		return c, nil
	}
	return 0, l.errf(pos, "unknown escape \\%c", c)
}

func (l *Lexer) scanChar(pos Pos) (Token, error) {
	start := l.off
	l.advance(1) // opening quote
	if l.off >= len(l.src) {
		return Token{}, l.errf(pos, "unterminated character literal")
	}
	var v byte
	if l.src[l.off] == '\\' {
		var err error
		if v, err = l.scanEscape(pos); err != nil {
			return Token{}, err
		}
	} else {
		v = l.src[l.off]
		l.advance(1)
	}
	if l.off >= len(l.src) || l.src[l.off] != '\'' {
		return Token{}, l.errf(pos, "unterminated character literal")
	}
	l.advance(1)
	return Token{Kind: CharLit, Pos: pos, Text: l.src[start:l.off], Int: uint64(v)}, nil
}

func (l *Lexer) scanString(pos Pos) (Token, error) {
	start := l.off
	l.advance(1)
	var sb strings.Builder
	for {
		if l.off >= len(l.src) || l.src[l.off] == '\n' {
			return Token{}, l.errf(pos, "unterminated string literal")
		}
		c := l.src[l.off]
		if c == '"' {
			l.advance(1)
			return Token{Kind: StringLit, Pos: pos, Text: l.src[start:l.off], Str: sb.String()}, nil
		}
		if c == '\\' {
			v, err := l.scanEscape(pos)
			if err != nil {
				return Token{}, err
			}
			sb.WriteByte(v)
			continue
		}
		sb.WriteByte(c)
		l.advance(1)
	}
}
