//go:build !race

package caps

const raceEnabled = false
