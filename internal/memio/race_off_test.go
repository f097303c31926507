//go:build !race

package memio_test

// raceEnabled reports whether the race detector is compiled in; allocation
// counts are not meaningful under it.
const raceEnabled = false
