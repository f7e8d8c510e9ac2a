package rng

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// weightRegimes are the six weight shapes the weighted sampler is pinned on:
// each fills w from g. They span what the evaluator produces ((acc+δ)^b with
// clients at accuracy 0), what breaks selection-by-key implementations (exact
// ties, zeros, keys that underflow) and 18 decades of dynamic range.
var weightRegimes = []struct {
	name string
	fill func(g *RNG, w []float64)
}{
	{"uniform", func(g *RNG, w []float64) {
		for i := range w {
			w[i] = g.Float64()
		}
	}},
	{"bias1.5", func(g *RNG, w []float64) {
		// (acc+δ)^1.5 at the paper's δ = 1e-4; one client in five has
		// accuracy 0 and so weight 1e-6.
		for i := range w {
			acc := g.Float64()
			if g.IntN(5) == 0 {
				acc = 0
			}
			w[i] = math.Pow(acc+1e-4, 1.5)
		}
	}},
	{"decades18", func(g *RNG, w []float64) {
		for i := range w {
			w[i] = math.Pow(10, g.Uniform(-9, 9))
		}
	}},
	{"halfzero", func(g *RNG, w []float64) {
		for i := range w {
			w[i] = 0
			if g.Bool(0.5) {
				w[i] = g.Uniform(0.1, 2)
			}
		}
		w[g.IntN(len(w))] = 1 // never all zero
	}},
	{"equal", func(g *RNG, w []float64) {
		c := g.Uniform(0.01, 3)
		for i := range w {
			w[i] = c
		}
	}},
	{"tiny", func(g *RNG, w []float64) {
		// Keys u^(1/w) with 1/w in 1e4..1e7: most underflow to exactly 0.
		for i := range w {
			w[i] = math.Pow(10, g.Uniform(-7, -4))
		}
	}},
}

// goldenKs returns the pinned sample sizes {1, 3, n/4, n/2, n} for a pool of n.
func goldenKs(n int) []int { return []int{1, min(3, n), n / 4, n / 2, n} }

// TestWeightedSampleGolden pins the weighted sampler's output — every
// returned subset in order, and the generator's position afterwards — to a
// hash recorded on the all-keys Efraimidis-Spirakis loop. The evaluator's
// parity tests (blocked vs sequential, multi vs single) share the sampler and
// cannot see it change; this can.
func TestWeightedSampleGolden(t *testing.T) {
	const want = "3976f39dc716cad70ee4f066c5e2e427599dc0264afc95ddf82639790f311832"
	h := sha256.New()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	for _, n := range []int{13, 50, 80} {
		w := make([]float64, n)
		for ri, regime := range weightRegimes {
			for seed := uint64(1); seed <= 8; seed++ {
				regime.fill(New(seed).Splitf("weights-%d-%d", n, ri), w)
				for _, k := range goldenKs(n) {
					g := New(seed).Splitf("draw-%d-%d-%d", n, ri, k)
					for rep := 0; rep < 4; rep++ {
						for _, i := range g.WeightedSampleWithoutReplacement(w, k) {
							put(uint64(i))
						}
						put(g.Uint64())
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("weighted-sample golden = %s, want %s", got, want)
	}
}
