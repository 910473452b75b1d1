package engine

import (
	"testing"

	"repro/internal/storage"
)

// CoopThreshold is the default cooperative-start threshold, for the
// external tests that sweep around it.
const CoopThreshold = coopThreshold

// RaceEnabled reports a race-detector build, where the allocation
// ceilings do not hold.
const RaceEnabled = raceEnabled

// SetCoopLimit pins the cooperative-start threshold for one test (0 =
// always parallel, math.MaxInt64 = never widen) and restores it when
// the test ends. Tests that use it must not run in parallel.
func SetCoopLimit(t testing.TB, limit int64) {
	old := coopLimit
	coopLimit = limit
	t.Cleanup(func() { coopLimit = old })
}

// SetPoisonOnRelease makes every buffer handed back for reuse — worker
// scratch and set tables alike — be overwritten as it is returned, for
// the rest of the test (storage.PoisonReleased). Set it before the
// test starts any run.
func SetPoisonOnRelease(t testing.TB) {
	old := storage.PoisonReleased
	storage.PoisonReleased = true
	t.Cleanup(func() { storage.PoisonReleased = old })
}
