package engine

import "testing"

// CoopThreshold is the default cooperative-start threshold, for the
// external tests that sweep around it.
const CoopThreshold = coopThreshold

// SetCoopLimit pins the cooperative-start threshold for one test (0 =
// always parallel, math.MaxInt64 = never widen) and restores it when
// the test ends. Tests that use it must not run in parallel.
func SetCoopLimit(t testing.TB, limit int64) {
	old := coopLimit
	coopLimit = limit
	t.Cleanup(func() { coopLimit = old })
}
