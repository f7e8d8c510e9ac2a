package hpo

import (
	"math"
	"noisyeval/internal/fl"
	"testing"
)

func TestNoisyBORunsWithinBudget(t *testing.T) {
	o := newTestOracle(0.1)
	h := NoisyBO{}.Run(o, DefaultSpace(), smallSettings(), rngSeed(30))
	if h.Len() == 0 {
		t.Fatal("no observations")
	}
	if h.RoundsConsumed() > 6480 {
		t.Errorf("training budget exceeded: %d", h.RoundsConsumed())
	}
	// Eval calls capped at 3*K by default.
	if o.evalCalls > 48 {
		t.Errorf("eval calls = %d, want <= 48", o.evalCalls)
	}
	rec, ok := h.Recommend()
	if !ok || math.IsNaN(rec.True) {
		t.Fatalf("recommendation = %+v", rec)
	}
}

func TestNoisyBOBeatsPlainRSUnderHeavyNoise(t *testing.T) {
	// The point of the method: posterior averaging should lower selection
	// regret under heavy evaluation noise relative to single-shot RS.
	regret := func(m Method) float64 {
		total := 0.0
		for seed := uint64(0); seed < 30; seed++ {
			o := newTestOracle(0.3)
			o.seed = seed
			h := m.Run(o, DefaultSpace(), smallSettings(), rngSeed(700+seed))
			rec, _ := h.Recommend()
			best := math.Inf(1)
			for _, obs := range h.All() {
				if obs.True < best {
					best = obs.True
				}
			}
			total += rec.True - best
		}
		return total / 30
	}
	rs, nbo := regret(RandomSearch{}), regret(NoisyBO{})
	if nbo > rs {
		t.Errorf("NoisyBO regret %.4f should not exceed RS regret %.4f under heavy noise", nbo, rs)
	}
}

func TestNoisyBOReevaluatesPromisingConfigs(t *testing.T) {
	o := newTestOracle(0.2)
	h := NoisyBO{EvalBudget: 64}.Run(o, DefaultSpace(), smallSettings(), rngSeed(31))
	// With eval budget above the candidate count, some config must be
	// observed more than once.
	counts := map[fl.HParams]int{}
	for _, obs := range h.All() {
		counts[obs.Config]++
	}
	multi := 0
	for _, c := range counts {
		if c > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("no configuration was re-evaluated")
	}
}

func TestNoisyBODeterminism(t *testing.T) {
	run := func() float64 {
		o := newTestOracle(0.1)
		h := NoisyBO{}.Run(o, DefaultSpace(), smallSettings(), rngSeed(32))
		rec, _ := h.Recommend()
		return rec.True
	}
	if run() != run() {
		t.Error("NoisyBO not deterministic")
	}
}

func TestNoisyBOName(t *testing.T) {
	if (NoisyBO{}).Name() != "NoisyBO" {
		t.Error("name")
	}
}
