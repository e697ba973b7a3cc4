//go:build !race

package testenv

// race reports whether the race detector is compiled in.
const race = false
