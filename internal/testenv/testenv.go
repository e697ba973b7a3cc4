// Package testenv tells tests what they are running under.
package testenv

import "testing"

// SkipFloorUnderRace skips an allocation-floor test when the race
// detector is compiled in. The floors count heap objects exactly; the
// detector allocates its own and empties sync.Pools at random.
func SkipFloorUnderRace(t testing.TB) {
	t.Helper()
	if race {
		t.Skip("allocation floor: heap objects are counted exactly, and the race detector allocates its own and empties the pools; run without -race")
	}
}
