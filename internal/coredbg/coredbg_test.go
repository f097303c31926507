package coredbg_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"duel"
	"duel/internal/coredbg"
	"duel/internal/ctype"
	"duel/internal/dbgif"
	"duel/internal/dbgif/dbgiftest"
)

// openFixture opens the checked-in core fixture, skipping the test when the
// pair is absent (regenerate with testdata/gen.sh on a machine with cc).
func openFixture(t *testing.T) *coredbg.Core {
	t.Helper()
	exe := filepath.Join("testdata", "fixture")
	core := filepath.Join("testdata", "fixture.core")
	for _, p := range []string{exe, core} {
		if _, err := os.Stat(p); err != nil {
			t.Skipf("fixture %s missing; run testdata/gen.sh to regenerate", p)
		}
	}
	c, err := coredbg.Open(exe, core)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return c
}

// TestConformance runs the full narrow-interface battery against the core
// dump. The capability gating flips the mutating sections to asserting the
// read-only sentinel; everything else must behave exactly like the live
// substrates.
func TestConformance(t *testing.T) {
	c := openFixture(t)
	if !dbgif.ReadOnly(c) {
		t.Fatal("core dump does not declare itself read-only")
	}
	get := func(name string) dbgif.VarInfo {
		vi, ok := c.GetTargetVariable(name)
		if !ok {
			t.Fatalf("missing symbol %q", name)
		}
		return vi
	}
	pair, ok := c.LookupStruct("pair", false)
	if !ok {
		t.Fatal("missing struct pair")
	}
	dbgiftest.Run(t, dbgiftest.Fixture{
		D:    c,
		G:    get("g"),
		Arr:  get("arr"),
		Msg:  get("msg"),
		Pt:   get("pt"),
		Fn:   get("twice"),
		Pair: pair,
	})
}

// TestFetchBSS fetches the fixture's zero-initialized array into a buffer
// pre-filled with 0xAA: whether the bytes come from the dump or from the
// zero-fill tail of a segment, they must all read as zero.
func TestFetchBSS(t *testing.T) {
	c := openFixture(t)
	vi, ok := c.GetTargetVariable("zeroed_bss")
	if !ok {
		t.Fatal("missing symbol zeroed_bss")
	}
	dst := bytes.Repeat([]byte{0xAA}, vi.Type.Size())
	if err := c.FetchTargetBytes(vi.Addr, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, make([]byte, len(dst))) {
		t.Errorf("zeroed_bss fetched as %x, want zeros", dst)
	}
}

// TestFrames checks the frame-pointer unwind against the fixture's known
// shape: crash(0)..crash(3), run, and nothing past the zeroed frame
// pointer. Locals resolve through DW_OP_fbreg with the dumped rbp.
func TestFrames(t *testing.T) {
	c := openFixture(t)
	want := []string{"crash", "crash", "crash", "crash", "run"}
	if n := c.NumFrames(); n != len(want) {
		names := make([]string, 0, n)
		for i := 0; i < n; i++ {
			name, _ := c.FrameFunc(i)
			names = append(names, name)
		}
		t.Fatalf("NumFrames = %d (%v), want %d %v", n, names, len(want), want)
	}
	for i, name := range want {
		got, ok := c.FrameFunc(i)
		if !ok || got != name {
			t.Errorf("frame %d = %q, %v, want %q", i, got, ok, name)
		}
	}

	// crash(depth, seed): depth counts 0,1,2,3 up the stack. local = seed+depth
	// accumulates from twice(g)=84: frame 3 local=87, 2→89, 1→90, 0→90.
	wantDepth := []int64{0, 1, 2, 3}
	for i, wd := range wantDepth {
		vi, ok := c.FrameVariable(i, "depth")
		if !ok {
			t.Fatalf("frame %d: no local %q", i, "depth")
		}
		b, err := c.GetTargetBytes(vi.Addr, 4)
		if err != nil {
			t.Fatalf("frame %d depth read: %v", i, err)
		}
		got := int64(int32(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24))
		if got != wd {
			t.Errorf("frame %d depth = %d, want %d", i, got, wd)
		}
	}

	ls, ok := c.FrameLocals(0)
	if !ok || len(ls) < 3 { // depth, seed, local
		t.Errorf("FrameLocals(0) = %v, %v; want depth, seed and local", ls, ok)
	}
	if _, ok := c.FrameLocals(len(want)); ok {
		t.Error("locals resolved past the last frame")
	}

	// The innermost frame's locals shadow globals in GetTargetVariable.
	vi, ok := c.GetTargetVariable("depth")
	if !ok {
		t.Fatal("GetTargetVariable(depth) failed")
	}
	fv, _ := c.FrameVariable(0, "depth")
	if vi.Addr != fv.Addr {
		t.Errorf("GetTargetVariable(depth) = 0x%x, want innermost frame's 0x%x", vi.Addr, fv.Addr)
	}
}

// TestTypesFromDWARF pins the DWARF-to-ctype mapping details conformance
// does not reach: list-node identity across lookup paths, enum size, the
// BSS zero-fill tail, and the .rodata-from-executable fallback.
func TestTypesFromDWARF(t *testing.T) {
	c := openFixture(t)
	a := c.Arch()
	if a.Model != ctype.LP64 {
		t.Errorf("arch model = %v, want LP64", a.Model)
	}

	node, ok := c.LookupStruct("node", false)
	if !ok {
		t.Fatal("missing struct node")
	}
	if node.Size() != 16 {
		t.Errorf("sizeof(struct node) = %d, want 16", node.Size())
	}
	head, ok := c.GetTargetVariable("head")
	if !ok {
		t.Fatal("missing head")
	}
	// head's pointee must be the identical *ctype.Struct the tag lookup
	// returns: the evaluator compares struct types by identity.
	pt, ok := ctype.Strip(head.Type).(*ctype.Pointer)
	if !ok {
		t.Fatalf("head type = %s, want struct node *", head.Type)
	}
	if ctype.Strip(pt.Elem) != ctype.Type(node) {
		t.Error("head's pointee is not the identical struct node instance")
	}

	// BSS reads as zero without being present in any file.
	z, ok := c.GetTargetVariable("zeroed_bss")
	if !ok {
		t.Fatal("missing zeroed_bss")
	}
	b, err := c.GetTargetBytes(z.Addr, 64)
	if err != nil {
		t.Fatalf("BSS read: %v", err)
	}
	for i, v := range b {
		if v != 0 {
			t.Fatalf("BSS byte %d = %d, want 0", i, v)
		}
	}

	if _, _, ok := c.LookupEnumConst("RED"); !ok {
		t.Error("missing enumerator RED")
	}
	if et, v, ok := c.LookupEnumConst("BLUE"); !ok || v != 6 {
		t.Errorf("BLUE = %v, %d, %v; want enum color, 6", et, v, ok)
	}
}

// TestQueriesAllBackends evaluates real DUEL queries from the paper against
// the core dump on every backend; outputs must agree byte for byte, and a
// few absolute expectations pin the values the C compiler actually placed
// in memory.
func TestQueriesAllBackends(t *testing.T) {
	queries := []string{
		"x[..10] >? 0",
		"+/x[..10]",
		"head-->next->value",
		"#/(head-->next)",
		"head-->next->(value ==? 7)",
		"g",
		"arr[..4]",
		"pt.x + pt.y",
		"*msg",
	}
	want := map[string]string{
		"+/x[..10]": "30\n",
		"g":         "g = 42\n",
	}
	var ref []string
	for _, backend := range []string{"push", "machine"} {
		t.Run(backend, func(t *testing.T) {
			opts := duel.DefaultOptions()
			opts.Backend = backend
			got := make([]string, len(queries))
			for i, q := range queries {
				ses, err := duel.NewSession(openFixture(t), opts)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := ses.Exec(&buf, q); err != nil {
					t.Fatalf("query %q: %v", q, err)
				}
				got[i] = buf.String()
				if w, ok := want[q]; ok && got[i] != w {
					t.Errorf("query %q:\n got  %q\n want %q", q, got[i], w)
				}
			}
			if ref == nil {
				ref = got
				for i, q := range queries {
					t.Logf("%s => %s", q, ref[i])
				}
				return
			}
			for i, q := range queries {
				if got[i] != ref[i] {
					t.Errorf("query %q diverged from push backend:\n got  %q\n want %q", q, got[i], ref[i])
				}
			}
		})
	}
}

// TestReadOnlyThroughSession checks the typed sentinel surfaces through a
// full session: strict mode aborts, ErrorValues mode contains per element.
func TestReadOnlyThroughSession(t *testing.T) {
	opts := duel.DefaultOptions()
	ses, err := duel.NewSession(openFixture(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ses.Exec(&buf, "g = 7"); !errors.Is(err, dbgif.ErrReadOnlyTarget) {
		t.Errorf("assignment error = %v, want ErrReadOnlyTarget", err)
	}
	if err := ses.Exec(&buf, "int i;"); !errors.Is(err, dbgif.ErrReadOnlyTarget) {
		t.Errorf("declaration error = %v, want ErrReadOnlyTarget", err)
	}
	if err := ses.Exec(&buf, "twice(21)"); !errors.Is(err, dbgif.ErrReadOnlyTarget) {
		t.Errorf("call error = %v, want ErrReadOnlyTarget", err)
	}

	opts.Eval.ErrorValues = true
	ses2, err := duel.NewSession(openFixture(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := ses2.Exec(&buf, "g = 7"); err != nil {
		t.Fatalf("contained assignment: %v", err)
	}
	if got, wantLine := buf.String(), "g = <read-only target>\n"; got != wantLine {
		t.Errorf("contained assignment output %q, want %q", got, wantLine)
	}
}
