//go:build !race

package noisyeval_test

const raceEnabled = false
