//go:build !race

package resultset_test

const raceEnabled = false
