package fleet

import (
	"context"
	"testing"

	"duel/internal/serve"
)

// TestFleetReadAllocs pins the heap allocations of one read routed over
// three replicas: routing, the parse on the serving replica, admission,
// the worker's evaluation and the streamed values. The measured floor is
// 74. The bound leaves 6 for scheduling noise and Go releases, under the 13
// that a second parse of the query adds (classifying on one replica, then
// parsing again to evaluate). Parsed twice, by a lexer that grew its token
// slice by appending, a read took 115.
func TestFleetReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts: skipped under -race")
	}
	const src = "x[2..9] >? 0"
	const max = 80
	r, _, _ := newGroup(t, Config{}, 3)
	values := 0
	read := func() {
		err := r.SubmitStream(context.Background(), "g", src, serve.SubmitOptions{}, func(serve.StreamValue) error {
			values++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ { // warm every replica's session pool
		read()
	}
	values = 0
	allocs := testing.AllocsPerRun(300, read)
	t.Logf("%s: %.1f allocations per read (%d values per read)", src, allocs, values/301)
	if allocs > max {
		t.Errorf("%s: %.1f allocations per read, want <= %d", src, allocs, max)
	}
}
