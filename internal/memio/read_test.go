package memio_test

import (
	"testing"

	"duel/internal/memio"
)

// TestReadAllocs checks that a read that does not fault costs no
// allocation of the accessor's own: uncached, the only one is the copy the
// substrate returns, and a read served from a resident page makes none.
func TestReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts: skipped under -race")
	}
	f := newFake(1 << 12)
	for _, c := range []struct {
		cache bool
		want  float64
	}{{false, 1}, {true, 0}} {
		a := memio.New(f, memio.Config{Cache: c.cache})
		read := func() {
			if _, err := a.GetTargetBytes(f.Base+8, 4); err != nil {
				t.Fatal(err)
			}
		}
		read()
		if got := testing.AllocsPerRun(100, read); got != c.want {
			t.Errorf("cache %v: a read made %.1f allocations, want %g", c.cache, got, c.want)
		}
	}
}

// TestTransientThenSuccessCounts checks the counters of a read that faults
// transiently twice and then succeeds: one engine read, two transients,
// two retries, three host round-trips and one result's bytes.
func TestTransientThenSuccessCounts(t *testing.T) {
	d, a := newFlaky(2)
	b, err := a.GetTargetBytes(d.Base+4, 4)
	if err != nil || b[0] != d.RAM[4] {
		t.Fatalf("read after 2 transients = %x, %v", b, err)
	}
	s := a.Stats()
	got := [5]int64{s.Reads, s.Transients, s.Retries, s.HostReads, s.HostBytes}
	if want := [5]int64{1, 2, 2, 3, 4}; got != want {
		t.Errorf("Reads, Transients, Retries, HostReads, HostBytes = %v, want %v", got, want)
	}
}
