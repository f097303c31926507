package parser

import "testing"

// TestParseAllocs pins the heap allocations of parsing one fleet-shaped
// read. The measured floor is 14: the parser, one token slice sized from the
// source, and the AST's nodes and kid slices. A lexer that grows its token
// slice by appending, or reads numbers through fmt, took 30.
func TestParseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts: skipped under -race")
	}
	const src = "x[123456..123463] >? -42"
	const max = 14
	env := newTestEnv()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := Parse(src, env); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Parse(%q): %.1f allocations", src, allocs)
	if allocs > max {
		t.Errorf("Parse(%q): %.1f allocations, want <= %d", src, allocs, max)
	}
}
