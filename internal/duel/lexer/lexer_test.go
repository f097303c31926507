package lexer

import (
	"strings"
	"testing"
)

// kinds tokenizes src and returns the token kinds (without EOF).
func kinds(t *testing.T, src string) []Kind {
	t.Helper()
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatalf("Tokenize(%q): %v", src, err)
	}
	out := make([]Kind, 0, len(toks)-1)
	for _, tok := range toks[:len(toks)-1] {
		out = append(out, tok.Kind)
	}
	return out
}

func eqKinds(a, b []Kind) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestOperatorMaximalMunch(t *testing.T) {
	cases := []struct {
		src  string
		want []Kind
	}{
		{"-->>", []Kind{BExpand}},
		{"-->", []Kind{Expand}},
		{"->", []Kind{Arrow}},
		{"--", []Kind{Dec}},
		{"-", []Kind{Minus}},
		{"a-->b", []Kind{Ident, Expand, Ident}},
		{"a-- >b", []Kind{Ident, Dec, Gt, Ident}},
		{"..", []Kind{DotDot}},
		{"...", []Kind{Ellipsis}},
		{".", []Kind{Dot}},
		{"a..b", []Kind{Ident, DotDot, Ident}},
		{"1..3", []Kind{IntLit, DotDot, IntLit}},
		{"1.5", []Kind{FloatLit}},
		{"1. 5", []Kind{FloatLit, IntLit}},
		{"<<=", []Kind{ShlAssign}},
		{"<<", []Kind{Shl}},
		{"<=?", []Kind{IfLe}},
		{"<=", []Kind{Le}},
		{"<?", []Kind{IfLt}},
		{"<", []Kind{Lt}},
		{">=? >? >> >>= >", []Kind{IfGe, IfGt, Shr, ShrAssign, Gt}},
		{"==? == =>", []Kind{IfEq, Eq, Imply}},
		{"!=? != !", []Kind{IfNe, Ne, Not}},
		{":= :", []Kind{Define, Colon}},
		{"#/ #", []Kind{CountOf, Hash}},
		{"&&/ && &= &", []Kind{AllOf, AndAnd, AndAssign, Amp}},
		{"||/ || |= |", []Kind{AnyOf, OrOr, OrAssign, Pipe}},
		{"+/ ++ += +", []Kind{SumOf, Inc, AddAssign, Plus}},
		{"x[[2]]", []Kind{Ident, LBracket, LBracket, IntLit, RBracket, RBracket}},
		{"x[a[0]]", []Kind{Ident, LBracket, Ident, LBracket, IntLit, RBracket, RBracket}},
		{"e@n", []Kind{Ident, At, Ident}},
		{"e#n", []Kind{Ident, Hash, Ident}},
	}
	for _, c := range cases {
		if got := kinds(t, c.src); !eqKinds(got, c.want) {
			t.Errorf("%q: got %v, want %v", c.src, got, c.want)
		}
	}
}

func TestCommentForms(t *testing.T) {
	cases := []struct {
		src  string
		want []Kind
	}{
		{"a /* comment */ b", []Kind{Ident, Ident}},
		{"a // rest\nb", []Kind{Ident, Ident}},
		{"a ## duel comment\nb", []Kind{Ident, Ident}},
		// "+/*" must lex as '+' then a comment, not the +/ reduction.
		{"a+/*c*/b", []Kind{Ident, Plus, Ident}},
		{"a+//c\nb", []Kind{Ident, Plus, Ident}},
		{"a&&/*c*/b", []Kind{Ident, AndAnd, Ident}},
		{"#/x", []Kind{CountOf, Ident}},
	}
	for _, c := range cases {
		if got := kinds(t, c.src); !eqKinds(got, c.want) {
			t.Errorf("%q: got %v, want %v", c.src, got, c.want)
		}
	}
	if _, err := Tokenize("/* unterminated"); err == nil {
		t.Error("unterminated comment accepted")
	}
}

func TestNumbers(t *testing.T) {
	cases := []struct {
		src      string
		val      uint64
		fval     float64
		isFloat  bool
		unsigned bool
		long     bool
	}{
		{"0", 0, 0, false, false, false},
		{"42", 42, 0, false, false, false},
		{"0x2A", 42, 0, false, false, false},
		{"052", 42, 0, false, false, false},
		{"42u", 42, 0, false, true, false},
		{"42L", 42, 0, false, false, true},
		{"42UL", 42, 0, false, true, true},
		{"4294967295", 4294967295, 0, false, false, false},
		{"1.5", 0, 1.5, true, false, false},
		{".5", 0, 0.5, true, false, false},
		{"1e3", 0, 1000, true, false, false},
		{"2.5e-1", 0, 0.25, true, false, false},
		{"08.5", 0, 8.5, true, false, false}, // C reads this as decimal 8.5
		{"0777", 0777, 0, false, false, false},
		{"1.", 0, 1, true, false, false},
		{"1.e2", 0, 100, true, false, false},
		{"18446744073709551615", 1<<64 - 1, 0, false, false, false},
	}
	for _, c := range cases {
		toks, err := Tokenize(c.src)
		if err != nil {
			t.Errorf("%q: %v", c.src, err)
			continue
		}
		tok := toks[0]
		if c.isFloat {
			if tok.Kind != FloatLit || tok.Float != c.fval {
				t.Errorf("%q: %v %v", c.src, tok.Kind, tok.Float)
			}
		} else {
			if tok.Kind != IntLit || tok.Int != c.val || tok.Unsigned != c.unsigned || tok.Long != c.long {
				t.Errorf("%q: %+v", c.src, tok)
			}
		}
	}
	if _, err := Tokenize("0x"); err == nil {
		t.Error("bare 0x accepted")
	}
	// An octal literal with an 8 or 9 in it is malformed, wherever the
	// digit sits: "078" must not lex as 7 (x[078] would read x[7]).
	for _, bad := range []string{"078", "0778", "08", "09", "0x1FFFFFFFFFFFFFFFF", "18446744073709551616", "1e400"} {
		toks, err := Tokenize(bad)
		if err == nil {
			t.Errorf("%q accepted as %+v", bad, toks[0])
			continue
		}
		if !strings.Contains(err.Error(), "malformed") {
			t.Errorf("%q: %v, want a malformed-literal error", bad, err)
		}
	}
	if _, err := Tokenize("x[078]"); err == nil || !strings.Contains(err.Error(), `malformed integer literal "078"`) {
		t.Errorf("x[078]: %v, want malformed integer literal", err)
	}
}

func TestCharLiterals(t *testing.T) {
	cases := []struct {
		src string
		val byte
	}{
		{`'a'`, 'a'},
		{`'\n'`, '\n'},
		{`'\0'`, 0},
		{`'\\'`, '\\'},
		{`'\''`, '\''},
		{`'\x41'`, 'A'},
		{`'\101'`, 'A'},
	}
	for _, c := range cases {
		toks, err := Tokenize(c.src)
		if err != nil {
			t.Errorf("%q: %v", c.src, err)
			continue
		}
		if toks[0].Kind != CharLit || toks[0].Int != uint64(c.val) {
			t.Errorf("%q = %d, want %d", c.src, toks[0].Int, c.val)
		}
	}
	for _, bad := range []string{"'a", "'", `'\q'`} {
		if _, err := Tokenize(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestStringLiterals(t *testing.T) {
	toks, err := Tokenize(`"a\tb\"c\n"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Str != "a\tb\"c\n" {
		t.Errorf("decoded %q", toks[0].Str)
	}
	for _, bad := range []string{`"abc`, "\"ab\nc\""} {
		if _, err := Tokenize(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestKeywordsVsIdents(t *testing.T) {
	toks, err := Tokenize("if iffy struct structure _ _x sizeof")
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		kind Kind
		text string
	}{
		{Keyword, "if"}, {Ident, "iffy"}, {Keyword, "struct"},
		{Ident, "structure"}, {Ident, "_"}, {Ident, "_x"}, {Keyword, "sizeof"},
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || toks[i].Text != w.text {
			t.Errorf("token %d = %v %q, want %v %q", i, toks[i].Kind, toks[i].Text, w.kind, w.text)
		}
	}
}

func TestPositions(t *testing.T) {
	toks, err := Tokenize("a\n  b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("a at %v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("b at %v", toks[1].Pos)
	}
}

func TestLexError(t *testing.T) {
	_, err := Tokenize("a $ b")
	if err == nil {
		t.Fatal("'$' accepted")
	}
	if !strings.Contains(err.Error(), "1:3") {
		t.Errorf("error lacks position: %v", err)
	}
}

// paperQueries is every query syntax the paper shows; FuzzTokenize starts
// from them too.
var paperQueries = []string{
	"x[..100] >? 0",
	"hash[0..1023]->scope = 0 ;",
	"x[1..4,8,12..50] >? 5 <? 10",
	"(hash[..1024] !=? 0)->scope >? 5",
	"x:= hash[..1024] !=? 0 => y:= x->scope => y = 0",
	"hash[1,9]->(scope,name)",
	"hash[..1024]->(if (_ && scope > 5) name)",
	"head-->next->value",
	"L-->next->(value ==? next-->next->value)",
	"root-->(left,right)->key",
	"((1..9)*(1..9))[[52,74]]",
	"#/(root-->(left,right)->key)",
	"L-->next#i->value ==? L-->next#j->value => if (i < j) L-->next[[i,j]]->value",
	"s[0..999]@(_=='\\0')",
	"argv[0..]@0",
	`printf("%d %d, ", (3,4), 5..7)`,
}

// TestPaperQueries tokenizes every query syntax the paper shows.
func TestPaperQueries(t *testing.T) {
	for _, q := range paperQueries {
		if _, err := Tokenize(q); err != nil {
			t.Errorf("Tokenize(%q): %v", q, err)
		}
	}
}
