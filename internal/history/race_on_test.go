//go:build race

package history

// raceEnabled: the race runtime allocates on its own account, so heap and
// allocation bounds hold only in builds without it.
const raceEnabled = true
