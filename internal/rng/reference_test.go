package rng

import (
	"fmt"
	"math"
)

// referenceWeightedSampleInto is the weighted sampler as it stood before the
// bracketed selection (DESIGN.md §18), moved here verbatim: one
// Efraimidis-Spirakis key math.Pow(u, 1/w) for every positive weight, then a
// partial selection sort. It is the differential oracle of
// TestWeightedSampleMatchesReference and FuzzWeightedSample, and the loop
// TestWeightedSampleGolden's hash was recorded on.
func (g *RNG) referenceWeightedSampleInto(weights []float64, k int, keyBuf []float64, idxBuf []int) []int {
	n := len(weights)
	if k < 0 || k > n {
		panic(fmt.Sprintf("rng: WeightedSampleWithoutReplacementInto k=%d out of range [0, %d]", k, n))
	}
	if k == 0 {
		return idxBuf[:0]
	}
	// Efraimidis-Spirakis: key = u^(1/w); take the k largest keys.
	// Zero-weight items get key -inf and are only selected after all
	// positive-weight items are exhausted.
	keys, idx := keyBuf[:n], idxBuf[:n]
	anyPositive := false
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic(fmt.Sprintf("rng: weight[%d] must be non-negative, got %g", i, w))
		}
		if w > 0 {
			anyPositive = true
			keys[i] = math.Pow(g.Float64(), 1/w)
		} else {
			keys[i] = math.Inf(-1)
		}
		idx[i] = i
	}
	if !anyPositive {
		panic("rng: all weights are zero")
	}
	// Partial selection of the k largest keys (same comparisons and swaps
	// as the historical pair-struct implementation).
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if keys[j] > keys[best] {
				best = j
			}
		}
		keys[i], keys[best] = keys[best], keys[i]
		idx[i], idx[best] = idx[best], idx[i]
	}
	return idx[:k]
}

// referencePick is the same loop over given uniforms instead of a stream
// (u[i] is read only where weights[i] > 0), for the cases no generator
// produces.
func referencePick(weights, u []float64, k int) []int {
	n := len(weights)
	keys, idx := make([]float64, n), make([]int, n)
	for i, w := range weights {
		if w > 0 {
			keys[i] = math.Pow(u[i], 1/w)
		} else {
			keys[i] = math.Inf(-1)
		}
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if keys[j] > keys[best] {
				best = j
			}
		}
		keys[i], keys[best] = keys[best], keys[i]
		idx[i], idx[best] = idx[best], idx[i]
	}
	return idx[:k]
}
