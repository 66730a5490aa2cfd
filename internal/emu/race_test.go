//go:build race

package emu

// raceEnabled reports a race-detector build, under which sync.Pool drops
// items at random and pooled executions allocate.
const raceEnabled = true
