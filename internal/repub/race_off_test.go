//go:build !race

package repub

const raceEnabled = false
