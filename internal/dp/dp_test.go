package dp

import (
	"math"
	"testing"
	"testing/quick"

	"noisyeval/internal/rng"
)

func TestParamsValidate(t *testing.T) {
	if err := (Params{Epsilon: 1, TotalEvals: 16}).Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	if err := (Params{Epsilon: InfEpsilon}).Validate(); err != nil {
		t.Errorf("inf epsilon should not need TotalEvals: %v", err)
	}
	for name, p := range map[string]Params{
		"zero eps":   {Epsilon: 0, TotalEvals: 1},
		"neg eps":    {Epsilon: -1, TotalEvals: 1},
		"zero evals": {Epsilon: 1, TotalEvals: 0},
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestNoiseScaleFormula(t *testing.T) {
	// Lap(M/(ε|S|)): M=16, ε=2, |S|=4 -> scale = 16/(2*4) = 2.
	p := Params{Epsilon: 2, TotalEvals: 16}
	if got := p.NoiseScale(4); math.Abs(got-2) > 1e-12 {
		t.Errorf("NoiseScale = %g, want 2", got)
	}
}

func TestNoiseScaleMoreClientsLessNoise(t *testing.T) {
	p := Params{Epsilon: 1, TotalEvals: 10}
	if p.NoiseScale(100) >= p.NoiseScale(1) {
		t.Error("noise scale should shrink as |S| grows")
	}
}

func TestNoiseScaleInfEpsilon(t *testing.T) {
	p := Params{Epsilon: InfEpsilon}
	if p.NoiseScale(1) != 0 {
		t.Error("inf epsilon must give zero noise")
	}
	if p.Private() {
		t.Error("inf epsilon is not private")
	}
}

func TestReleaseNonPrivateIsIdentity(t *testing.T) {
	p := Params{Epsilon: InfEpsilon}
	if got := p.Release(0.42, 10, rng.New(1)); got != 0.42 {
		t.Errorf("Release = %g", got)
	}
}

func TestReleaseNoiseMagnitude(t *testing.T) {
	// Empirical mean abs deviation should approximate the Laplace scale.
	p := Params{Epsilon: 1, TotalEvals: 10}
	g := rng.New(2)
	scale := p.NoiseScale(5) // 10/(1*5) = 2
	const n = 100000
	sumAbs := 0.0
	for i := 0; i < n; i++ {
		sumAbs += math.Abs(p.Release(0.5, 5, g) - 0.5)
	}
	if mad := sumAbs / n; math.Abs(mad-scale) > 0.05 {
		t.Errorf("mean abs deviation %.3f, want ~%.1f", mad, scale)
	}
}

func TestLaplaceScale(t *testing.T) {
	if got := LaplaceScale(0.5, 2); got != 0.25 {
		t.Errorf("LaplaceScale = %g", got)
	}
	if got := LaplaceScale(1, InfEpsilon); got != 0 {
		t.Errorf("inf epsilon scale = %g", got)
	}
}

func TestOneShotTopKNoNoise(t *testing.T) {
	vals := []float64{0.1, 0.9, 0.5, 0.7}
	got := OneShotTopK(vals, 2, 0, rng.New(1))
	if got[0] != 1 || got[1] != 3 {
		t.Errorf("top-2 = %v, want [1 3]", got)
	}
}

func TestOneShotTopKDeterministicTieBreak(t *testing.T) {
	vals := []float64{0.5, 0.5, 0.5}
	got := OneShotTopK(vals, 2, 0, rng.New(1))
	if got[0] != 0 || got[1] != 1 {
		t.Errorf("tie-break = %v, want [0 1]", got)
	}
}

func TestOneShotTopKDistinctIndices(t *testing.T) {
	g := rng.New(3)
	f := func(rawN, rawK uint8) bool {
		n := int(rawN%20) + 1
		k := int(rawK) % (n + 1)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = g.Float64()
		}
		got := OneShotTopK(vals, k, 1.0, g)
		if len(got) != k {
			return false
		}
		seen := map[int]bool{}
		for _, idx := range got {
			if idx < 0 || idx >= n || seen[idx] {
				return false
			}
			seen[idx] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestOneShotTopKNoiseDegradesSelection(t *testing.T) {
	// With huge noise, the true best should often NOT be selected;
	// with tiny noise it always should. This is Observation 5 in miniature.
	g := rng.New(4)
	vals := []float64{0.2, 0.25, 0.3, 0.9} // index 3 is clearly best
	const trials = 2000
	hitsSmall, hitsHuge := 0, 0
	for i := 0; i < trials; i++ {
		if OneShotTopK(vals, 1, 0.001, g)[0] == 3 {
			hitsSmall++
		}
		if OneShotTopK(vals, 1, 50, g)[0] == 3 {
			hitsHuge++
		}
	}
	if hitsSmall < trials*99/100 {
		t.Errorf("small noise selected best only %d/%d", hitsSmall, trials)
	}
	if hitsHuge > trials*60/100 {
		t.Errorf("huge noise still selected best %d/%d; expected near-random", hitsHuge, trials)
	}
}

func TestOneShotTopKPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"k too large": func() { OneShotTopK([]float64{1}, 2, 0, rng.New(1)) },
		"neg k":       func() { OneShotTopK([]float64{1}, -1, 0, rng.New(1)) },
		"neg scale":   func() { OneShotTopK([]float64{1}, 1, -1, rng.New(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestTopKScaleFormula(t *testing.T) {
	// 2*T*k/(ε|S|): T=10, k=3, |S|=5, ε=4 -> 60/20 = 3.
	if got := TopKScale(10, 3, 5, 4); math.Abs(got-3) > 1e-12 {
		t.Errorf("TopKScale = %g, want 3", got)
	}
	if TopKScale(10, 3, 5, InfEpsilon) != 0 {
		t.Error("inf epsilon top-k scale should be 0")
	}
}

func TestClamp01(t *testing.T) {
	cases := map[float64]float64{-0.5: 0, 0.3: 0.3, 1.7: 1}
	for in, want := range cases {
		if got := Clamp01(in); got != want {
			t.Errorf("Clamp01(%g) = %g, want %g", in, got, want)
		}
	}
}

func TestPerEvalEpsilon(t *testing.T) {
	p := Params{Epsilon: 8, TotalEvals: 16}
	if got := p.PerEvalEpsilon(); got != 0.5 {
		t.Errorf("per-eval epsilon = %g", got)
	}
}
