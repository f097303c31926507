package value

import (
	"strings"
	"testing"
)

// TestSymStorePaths checks --> path rendering: runs of three or more
// identical steps compress, a new run starts a new "->" segment, a root
// below postfix precedence is parenthesized, a root that is itself a path
// starts a fresh run, and a path that would pass MaxPathSym ends in "->..."
// for every descendant. Len must agree with the rendered text throughout.
func TestSymStorePaths(t *testing.T) {
	var st SymStore
	walk := func(root Sym, steps ...string) Sym {
		p := st.PathRoot(root)
		for _, s := range steps {
			p = st.Step(p, st.Text(s))
		}
		return p
	}
	head := st.Text("head")
	cases := []struct {
		path Sym
		want string
	}{
		{walk(head), "head"},
		{walk(head, "next", "next"), "head->next->next"},
		{walk(head, "next", "next", "next"), "head-->next[[3]]"},
		{walk(head, "l", "l", "l", "r", "l"), "head-->l[[3]]->r->l"},
		{walk(st.Binary(st.Text("p"), "+", st.Int(1), PrecAdditive), "n"), "(p+1)->n"},
		{walk(walk(head, "next", "next"), "next"), "head->next->next->next"},
		{walk(st.Text(strings.Repeat("h", MaxPathSym-2)), "ab", "cd", "cd"), strings.Repeat("h", MaxPathSym-2) + "->ab->..."},
	}
	for _, c := range cases {
		if got := st.String(c.path); got != c.want || st.length(c.path) != len(c.want) {
			t.Errorf("path %q (length %d), want %q", got, st.length(c.path), c.want)
		}
	}
	cut := walk(st.Text(strings.Repeat("h", MaxPathSym)), "a")
	if st.Step(cut, st.Text("b")) != cut {
		t.Error("a cut path's child is not the cut path")
	}
}

// TestSymStoreEqual checks that equality is by rendered text, not handle.
func TestSymStoreEqual(t *testing.T) {
	var st SymStore
	a := st.Index(st.Text("x"), st.Int(3))
	b := st.Index(st.Text("x"), st.Text("3"))
	c := st.Index(st.Text("x"), st.Int(2))
	if !st.Equal(a, b) || st.Equal(a, c) || st.Equal(a, st.Text("x")) {
		t.Errorf("Equal(x[3], x[3]) = %v, Equal(x[3], x[2]) = %v, Equal(x[3], x) = %v",
			st.Equal(a, b), st.Equal(a, c), st.Equal(a, st.Text("x")))
	}
}

// TestSymStoreReset checks what survives Reset: integers and kept texts do,
// and any other handle panics instead of rendering another value's text.
func TestSymStoreReset(t *testing.T) {
	var st SymStore
	i := st.Int(42)
	x := st.Index(st.Text("x"), i)
	kept := st.Keep("y", x)
	st.Reset()
	st.Index(st.Text("z"), st.Int(1)) // reuses x's slots
	if got := st.String(i); got != "42" {
		t.Errorf("integer after Reset = %q", got)
	}
	if got := st.String(kept); got != "x[42]" {
		t.Errorf("kept text after Reset = %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("rendering a handle from an earlier evaluation did not panic")
		}
	}()
	st.String(x)
}

// TestSymStoreTextSlots checks that a working set of operator spellings and
// field names, used over and over, takes one text slot per distinct string
// — whatever the strings' addresses, so a copy of "next" built at run time
// shares the slot of the constant.
func TestSymStoreTextSlots(t *testing.T) {
	words := []string{"->", "-->", ".", "[[", ">?", "<?", "==?", "!=?", "+", "-", "*", "&&",
		"next", "scope", "value", "hash", "x", "head", "left", "right"}
	var st SymStore
	for round := 0; round < 100; round++ {
		for _, w := range words {
			if got := st.String(st.Text(strings.Clone(w))); got != w {
				t.Fatalf("Text(%q) renders %q", w, got)
			}
			st.Text(w)
		}
	}
	if len(st.texts) != len(words) {
		t.Errorf("%d words used 100 times each took %d text slots, want %d", len(words), len(st.texts), len(words))
	}
}

// TestSymStoreChunkReuse checks that Reset recycles the node chunks it
// drops: after one large evaluation, a second one of the same size
// allocates no chunk, and the store itself keeps only its first chunk.
func TestSymStoreChunkReuse(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts: skipped under -race (sync.Pool drops items at random)")
	}
	var st SymStore
	eval := func() {
		st.Reset()
		x := st.Text("x")
		for i := 0; i < 40*chunkSize; i++ {
			st.Index(x, st.Int(int64(i)))
		}
	}
	eval()
	if allocs := testing.AllocsPerRun(5, eval); allocs != 0 {
		t.Errorf("an evaluation as large as the last one made %.1f allocations, want 0", allocs)
	}
	st.Reset()
	if len(st.chunks) != 1 {
		t.Errorf("an idle store holds %d chunks, want 1", len(st.chunks))
	}
}
