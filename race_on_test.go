//go:build race

package noisyeval_test

// raceEnabled reports that the race detector is compiled in: allocation
// counts are not exact under it (sync.Pool sheds items at random).
const raceEnabled = true
