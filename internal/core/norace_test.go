//go:build !race

package mana

// raceEnabled reports a race-detector build, whose sync.Pool drops a
// random quarter of the buffers put back.
const raceEnabled = false
