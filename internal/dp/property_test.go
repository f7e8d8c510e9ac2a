package dp

import (
	"math"
	"testing"
	"testing/quick"

	"noisyeval/internal/rng"
)

// Property: with zero noise scale, OneShotTopK(values, k) extended to
// k+1 always contains the k-selection as a prefix (nested selections).
func TestTopKNestedProperty(t *testing.T) {
	g := rng.New(200)
	f := func(seed uint8) bool {
		n := int(seed%15) + 2
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = g.Float64()
		}
		k := g.IntN(n-1) + 1
		small := OneShotTopK(vals, k, 0, g)
		large := OneShotTopK(vals, k+1, 0, g)
		for i := range small {
			if small[i] != large[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: BottomK of the negated values equals OneShotTopK (no noise) of
// the originals.
func TestBottomKMirrorsTopKProperty(t *testing.T) {
	g := rng.New(201)
	f := func(seed uint8) bool {
		n := int(seed%15) + 1
		vals := make([]float64, n)
		neg := make([]float64, n)
		for i := range vals {
			vals[i] = g.Float64()
			neg[i] = -vals[i]
		}
		k := g.IntN(n) + 1
		top := OneShotTopK(vals, k, 0, g)
		bottom := BottomK(neg, k)
		for i := range top {
			if top[i] != bottom[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: per-eval budgets of a Params split sum to the total under basic
// composition (ε/M times M releases spends exactly ε).
func TestCompositionExactProperty(t *testing.T) {
	f := func(rawEps, rawM uint8) bool {
		eps := 0.1 + float64(rawEps%100)/10
		m := int(rawM%30) + 1
		p := Params{Epsilon: eps, TotalEvals: m}
		spent := 0.0
		for i := 0; i < m; i++ {
			spent += p.PerEvalEpsilon()
		}
		return math.Abs(spent-eps) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: NoiseScale is monotone — decreasing in |S| and ε, increasing
// in M.
func TestNoiseScaleMonotoneProperty(t *testing.T) {
	f := func(rawEps, rawM, rawS uint8) bool {
		eps := 0.1 + float64(rawEps%50)/10
		m := int(rawM%20) + 1
		s := int(rawS%50) + 1
		base := Params{Epsilon: eps, TotalEvals: m}.NoiseScale(s)
		moreClients := Params{Epsilon: eps, TotalEvals: m}.NoiseScale(s + 1)
		moreBudget := Params{Epsilon: eps * 2, TotalEvals: m}.NoiseScale(s)
		moreEvals := Params{Epsilon: eps, TotalEvals: m + 1}.NoiseScale(s)
		return moreClients <= base && moreBudget <= base && moreEvals >= base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
