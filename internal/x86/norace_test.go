//go:build !race

package x86

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
