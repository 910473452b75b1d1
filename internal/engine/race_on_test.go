//go:build race

package engine

// raceEnabled: under the race detector sync.Pool drops a share of what
// it is handed, so the allocation ceilings do not apply.
const raceEnabled = true
