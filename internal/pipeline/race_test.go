//go:build race

package pipeline

// raceEnabled: the race detector drops a quarter of sync.Pool puts at
// random, so tests that count pooled reuse skip under it.
const raceEnabled = true
