//go:build race

package core

// raceEnabled: the race runtime allocates on its own account, so exact
// allocation bounds hold only in builds without it.
const raceEnabled = true
