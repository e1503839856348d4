//go:build race

package fl

// The race-enabled runtime instruments every allocation and makes
// testing.AllocsPerRun figures meaningless; the wire alloc gate runs
// without -race.
const raceEnabled = true
