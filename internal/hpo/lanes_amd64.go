package hpo

import "noisyeval/internal/cpu"

// useLanes selects kernelSumsAVX2 for the ℓ/g bracket's kernel sums
// (DESIGN.md §19). It is the CPU probe and nothing else: the kernel's sums
// are bit-identical to kde1d.approx's, so only speed depends on it.
var useLanes = cpu.AVX2

// kernelSumsAVX2 sets sums[j], for j < 4·nvec, to kde1d.approx's kernel sum
// at xs[j] over the nc centres, with approx's operations in approx's order.
//
//go:noescape
func kernelSumsAVX2(sums, xs, centers, table *float64, nvec, nc int, scale float64)
