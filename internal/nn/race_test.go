//go:build race

package nn

// The race-enabled runtime deliberately drops a fraction of sync.Pool puts,
// so pool-backed paths cannot hold a strict allocation count under -race.
const raceEnabled = true
