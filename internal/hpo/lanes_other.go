//go:build !amd64

package hpo

// No assembly off amd64: kde1d.approx is the only path.
const useLanes = false

func kernelSumsAVX2(sums, xs, centers, table *float64, nvec, nc int, scale float64) {}
