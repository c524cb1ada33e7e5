//go:build !race

package gma

const raceEnabled = false
