//go:build race

package gma

// raceEnabled: the race runtime allocates on its own account, so exact
// allocation bounds hold only in builds without it.
const raceEnabled = true
