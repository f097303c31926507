package microc

import (
	"testing"

	"duel/internal/ctype"
	"duel/internal/fakedbg"
	"duel/internal/target"
)

// TestInterpReadsUncached: the interpreter writes stack frames straight
// into the process's memory, behind its accessor, so that accessor must
// not cache pages.
func TestInterpReadsUncached(t *testing.T) {
	p := target.MustNewProcess(target.Config{Model: ctype.ILP32, DataSize: 1 << 16, HeapSize: 1 << 16, StackSize: 1 << 14})
	in, err := Load(p, fakedbg.New(ctype.ILP32, 1<<12), "int main() { return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	if in.env.Mem.Caching() {
		t.Error("the interpreter's accessor caches pages")
	}
}
