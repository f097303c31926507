package lexer

import (
	"math/bits"
	"strings"
	"testing"
)

// oracleOps is the operator table the lexer once scanned on every Next: each
// spelling tried in turn with strings.HasPrefix, longest first. It stays
// here as the oracle for scanOp's byte switch.
var oracleOps = []struct {
	text string
	kind Kind
}{
	{"-->>", BExpand}, {"...", Ellipsis}, {"<<=", ShlAssign}, {">>=", ShrAssign},
	{"==?", IfEq}, {"!=?", IfNe}, {"<=?", IfLe}, {">=?", IfGe}, {"-->", Expand},
	{"&&/", AllOf}, {"||/", AnyOf},
	{"==", Eq}, {"!=", Ne}, {"<=", Le}, {">=", Ge}, {"<?", IfLt}, {">?", IfGt},
	{"<<", Shl}, {">>", Shr}, {"&&", AndAnd}, {"||", OrOr},
	{"->", Arrow}, {"++", Inc}, {"--", Dec},
	{"+=", AddAssign}, {"-=", SubAssign}, {"*=", MulAssign}, {"/=", DivAssign},
	{"%=", ModAssign}, {"&=", AndAssign}, {"|=", OrAssign}, {"^=", XorAssign},
	{"=>", Imply}, {":=", Define}, {"..", DotDot}, {"#/", CountOf}, {"+/", SumOf},
	{"(", LParen}, {")", RParen}, {"[", LBracket}, {"]", RBracket},
	{"{", LBrace}, {"}", RBrace}, {",", Comma}, {";", Semi}, {":", Colon},
	{"?", Question}, {".", Dot}, {"+", Plus}, {"-", Minus}, {"*", Star},
	{"/", Slash}, {"%", Percent}, {"&", Amp}, {"|", Pipe}, {"^", Caret},
	{"~", Tilde}, {"!", Not}, {"<", Lt}, {">", Gt}, {"=", Assign},
	{"@", At}, {"#", Hash},
}

// oracleOp is the old longest-match scan, including its rule that a
// "/"-ended reduction never swallows the start of a comment.
func oracleOp(s string) (Kind, int) {
	for _, op := range oracleOps {
		if strings.HasPrefix(s, op.text) {
			if strings.HasSuffix(op.text, "/") && len(s) > len(op.text) {
				if after := s[len(op.text)]; after == '*' || after == '/' {
					continue
				}
			}
			return op.kind, len(op.text)
		}
	}
	return 0, 0
}

type lexed struct {
	kind Kind
	text string
}

// oracleTokenize lexes src the old way: the lexer's own whitespace and
// comment skipping and its identifiers and literals, but operators through
// oracleOp. ok is false where the lexer must report an error.
func oracleTokenize(src string) (out []lexed, ok bool) {
	l := New(src)
	for {
		if err := l.skipSpace(); err != nil {
			return nil, false
		}
		if l.off >= len(l.src) {
			return out, true
		}
		if c := l.src[l.off]; isIdentStart(c) || isDigit(c) || c == '.' && isDigit(l.peekAt(1)) || c == '\'' || c == '"' {
			tok, err := l.Next()
			if err != nil {
				return nil, false
			}
			out = append(out, lexed{tok.Kind, tok.Text})
			continue
		}
		k, n := oracleOp(l.src[l.off:])
		if n == 0 {
			return nil, false
		}
		out = append(out, lexed{k, l.src[l.off : l.off+n]})
		l.advance(n)
	}
}

// checkAgainstOracle compares Tokenize on src with oracleTokenize.
func checkAgainstOracle(t *testing.T, src string) {
	t.Helper()
	want, wantOK := oracleTokenize(src)
	toks, err := Tokenize(src)
	if (err == nil) != wantOK {
		t.Errorf("%q: Tokenize error %v, oracle ok=%v", src, err, wantOK)
		return
	}
	if err != nil {
		return
	}
	got := make([]lexed, 0, len(toks)-1)
	for _, tok := range toks[:len(toks)-1] {
		got = append(got, lexed{tok.Kind, tok.Text})
	}
	if len(got) != len(want) {
		t.Errorf("%q: got %v, oracle %v", src, got, want)
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%q: got %v, oracle %v", src, got, want)
			return
		}
	}
}

// TestOperatorsMatchOracle checks every operator spelling, and every
// concatenation of two spellings, against the old table scan — which
// covers each longest-match decision the byte switch makes and every
// comment the two halves can form ("/" "*", "#" "#", "+/" "/").
func TestOperatorsMatchOracle(t *testing.T) {
	for _, a := range oracleOps {
		checkAgainstOracle(t, a.text)
		for _, b := range oracleOps {
			checkAgainstOracle(t, a.text+b.text)
		}
	}
	for _, src := range []string{
		"a+/*c*/b", "#//x", "&&/", "&&//x", "||/*c*/y", "+//c\nb", "#/x", "a-->>b",
		"x-->next", "x.. y", "x...", "<<=?", ">>=?", "!=?=", "--->", "---->>",
	} {
		checkAgainstOracle(t, src)
	}
}

// cIntValue is the C value of an integer literal's spelling: suffixes
// dropped, a 0x prefix hex, any other leading 0 octal. ok is false for a
// spelling C rejects or a value that does not fit 64 bits.
func cIntValue(text string) (v uint64, ok bool) {
	text = strings.TrimRight(text, "uUlL")
	digits, base := text, uint64(10)
	switch {
	case len(text) > 1 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X'):
		digits, base = text[2:], 16
	case len(text) > 1 && text[0] == '0':
		digits, base = text[1:], 8
	}
	if digits == "" {
		return 0, false
	}
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, false
		}
		if d >= base {
			return 0, false
		}
		hi, lo := bits.Mul64(v, base)
		sum, carry := bits.Add64(lo, d, 0)
		if hi != 0 || carry != 0 {
			return 0, false
		}
		v = sum
	}
	return v, true
}

// FuzzTokenize checks, on arbitrary input, that the lexer never panics,
// that re-lexing each token's own text yields the same token, and that an
// integer literal's value is the C value of its digits.
func FuzzTokenize(f *testing.F) {
	for _, q := range paperQueries {
		f.Add(q)
	}
	for _, q := range []string{"x[078]", "0x1fUL + 052 - 08.5", "a+/*c*/b", "#//x", "&&/", "1.e5..7"} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := Tokenize(src)
		if err != nil {
			return
		}
		for _, tok := range toks[:len(toks)-1] {
			again, err := Tokenize(tok.Text)
			if err != nil {
				t.Fatalf("%q: token %+v does not re-lex: %v", src, tok, err)
			}
			if len(again) != 2 {
				t.Fatalf("%q: token %q re-lexes to %d tokens", src, tok.Text, len(again)-1)
			}
			re := again[0]
			re.Pos = tok.Pos
			if re != tok {
				t.Fatalf("%q: token %+v re-lexes as %+v", src, tok, re)
			}
			if tok.Kind == IntLit {
				v, ok := cIntValue(tok.Text)
				if !ok || v != tok.Int {
					t.Fatalf("%q: integer literal %q lexed as %d, C value %d (valid %v)", src, tok.Text, tok.Int, v, ok)
				}
			}
		}
	})
}
