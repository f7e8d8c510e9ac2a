package hpo

import (
	"math"
	"testing"
)

func TestResampledRSBudgetAndShape(t *testing.T) {
	o := newTestOracle(0.1)
	h := ResampledRS{Reps: 4}.Run(o, DefaultSpace(), smallSettings(), rng4())
	if h.Len() != 16 {
		t.Fatalf("observations = %d", h.Len())
	}
	// Each config was evaluated Reps times.
	if o.evalCalls != 16*4 {
		t.Errorf("eval calls = %d, want 64", o.evalCalls)
	}
	if h.RoundsConsumed() != 6480 {
		t.Errorf("rounds = %d", h.RoundsConsumed())
	}
}

func TestResampledRSReducesSubsamplingRegret(t *testing.T) {
	// Averaging independent evaluations should pick better configs than
	// single-evaluation RS under pure subsampling noise (no DP).
	regret := func(m Method) float64 {
		total := 0.0
		for seed := uint64(0); seed < 25; seed++ {
			o := newTestOracle(0.25)
			o.seed = seed
			h := m.Run(o, DefaultSpace(), smallSettings(), rngSeed(500+seed))
			rec, _ := h.Recommend()
			best := math.Inf(1)
			for _, obs := range h.All() {
				if obs.True < best {
					best = obs.True
				}
			}
			total += rec.True - best
		}
		return total / 25
	}
	plain := regret(RandomSearch{})
	avg := regret(ResampledRS{Reps: 5})
	if avg > plain {
		t.Errorf("re-evaluation regret %.4f should not exceed plain RS %.4f", avg, plain)
	}
}

func TestResampledRSDefaultReps(t *testing.T) {
	o := newTestOracle(0)
	ResampledRS{}.Run(o, DefaultSpace(), smallSettings(), rng4())
	if o.evalCalls != 16*3 {
		t.Errorf("default reps should be 3, saw %d calls", o.evalCalls)
	}
}

func TestResampledRSName(t *testing.T) {
	if (ResampledRS{}).Name() != "RS+reeval" {
		t.Error("name")
	}
}
