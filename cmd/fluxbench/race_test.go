//go:build race

package main

// raceEnabled reports a -race build, where sync.Pool drops items at
// random and allocation counts are not reproducible.
const raceEnabled = true
