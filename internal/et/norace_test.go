//go:build !race

package et

const raceEnabled = false
