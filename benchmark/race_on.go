//go:build race

package main

// raceEnabled makes main refuse to measure: the race detector multiplies
// every latency, which is one of the gaps ROADMAP item 1 could not explain.
const raceEnabled = true
