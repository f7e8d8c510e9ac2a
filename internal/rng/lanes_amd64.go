package rng

import "noisyeval/internal/cpu"

// useLanes selects bracketsAVX2 for the sampler's bracket pass (DESIGN.md
// §18). It is the CPU probe and nothing else: the kernel's brackets are
// bit-identical to brackets', so only speed depends on it.
var useLanes = cpu.AVX2

// bracketsAVX2 is brackets over the first 4·nvec items, with its operations
// in its order; table is log2Mid.
//
//go:noescape
func bracketsAVX2(lo, hi, u, inv, margin, table *float64, nvec int)
