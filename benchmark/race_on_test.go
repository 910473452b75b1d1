//go:build race

package main

// raceEnabled: the race detector slows the smoke run several times
// over, so its time limit applies to the plain build only.
const raceEnabled = true
