//go:build !amd64

package rng

// No assembly off amd64: brackets is the only path.
const useLanes = false

func bracketsAVX2(lo, hi, u, inv, margin, table *float64, nvec int) {}
