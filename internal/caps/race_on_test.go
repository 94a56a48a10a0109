//go:build race

package caps

// raceEnabled skips allocation counts: race instrumentation allocates on its
// own.
const raceEnabled = true
