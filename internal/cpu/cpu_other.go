//go:build !amd64

package cpu

// No assembly kernels off amd64: their Go loops are the only path.
const AVX2, FMA = false, false
