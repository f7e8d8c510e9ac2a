package hpo

import (
	"math"
	"testing"

	"noisyeval/internal/fl"
	"noisyeval/internal/rng"
)

// faultyOracle injects pathological evaluations: NaN on selected calls,
// constant ties otherwise. Tuning methods must stay within budget and still
// return a recommendation.
type faultyOracle struct {
	testOracle
	nanEvery int
	calls    int
}

func (o *faultyOracle) Evaluate(cfg fl.HParams, rounds int, evalID string) float64 {
	o.calls++
	if o.nanEvery > 0 && o.calls%o.nanEvery == 0 {
		return math.NaN()
	}
	return 0.5 // constant tie
}

func newFaultyOracle(nanEvery int) *faultyOracle {
	return &faultyOracle{
		testOracle: *newTestOracle(0),
		nanEvery:   nanEvery,
	}
}

func TestMethodsSurviveTiedEvaluations(t *testing.T) {
	for _, m := range []Method{RandomSearch{}, TPE{}, Hyperband{}, BOHB{}, SuccessiveHalving{N: 9, R0: 5}, ResampledRS{}} {
		o := newFaultyOracle(0) // all evaluations tie at 0.5
		h := m.Run(o, DefaultSpace(), smallSettings(), rng.New(40))
		if len(h.Observations) == 0 {
			t.Errorf("%s: no observations under ties", m.Name())
			continue
		}
		if _, ok := h.Recommend(); !ok {
			t.Errorf("%s: no recommendation under ties", m.Name())
		}
		if h.RoundsConsumed() > smallSettings().Budget.TotalRounds {
			t.Errorf("%s: budget exceeded under ties", m.Name())
		}
	}
}

func TestMethodsSurviveNaNEvaluations(t *testing.T) {
	for _, m := range []Method{RandomSearch{}, TPE{}, Hyperband{}, BOHB{}} {
		o := newFaultyOracle(3) // every third evaluation is NaN
		h := m.Run(o, DefaultSpace(), smallSettings(), rng.New(41))
		if len(h.Observations) == 0 {
			t.Errorf("%s: no observations under NaN injection", m.Name())
			continue
		}
		rec, ok := h.Recommend()
		if !ok {
			t.Errorf("%s: no recommendation under NaN injection", m.Name())
			continue
		}
		// The recommendation must never itself be a NaN observation when
		// non-NaN observations exist at the top fidelity.
		if math.IsNaN(rec.Observed) {
			hasClean := false
			for _, obs := range h.Observations {
				if obs.Rounds == rec.Rounds && !math.IsNaN(obs.Observed) {
					hasClean = true
					break
				}
			}
			if hasClean {
				t.Errorf("%s: recommended a NaN-scored config over clean ones", m.Name())
			}
		}
	}
}

func TestZeroKBudget(t *testing.T) {
	s := smallSettings()
	s.Budget.K = 0
	o := newTestOracle(0)
	h := RandomSearch{}.Run(o, DefaultSpace(), s, rng.New(42))
	if len(h.Observations) != 0 {
		t.Error("K=0 should produce no observations")
	}
	if _, ok := h.Recommend(); ok {
		t.Error("K=0 should produce no recommendation")
	}
}

func TestBudgetSmallerThanOneConfig(t *testing.T) {
	s := smallSettings()
	s.Budget.TotalRounds = 100 // < MaxPerConfig = 405
	o := newTestOracle(0)
	h := RandomSearch{}.Run(o, DefaultSpace(), s, rng.New(43))
	if len(h.Observations) != 0 {
		t.Error("insufficient budget should produce no observations")
	}
}

func TestDegenerateSpaceSinglePoint(t *testing.T) {
	s := DefaultSpace()
	s.ServerLRMin, s.ServerLRMax = 1e-3, 1e-3+1e-12
	s.ClientLRMin, s.ClientLRMax = 1e-1, 1e-1+1e-12
	s.Beta1Min, s.Beta1Max = 0.5, 0.5
	s.Beta2Min, s.Beta2Max = 0.9, 0.9
	s.MomentumMin, s.MomentumMax = 0, 0
	s.BatchSizes = []int{32}
	o := newTestOracle(0.05)
	o.pool = s.SampleN(128, rng.New(7))
	h := TPE{}.Run(o, s, smallSettings(), rng.New(44))
	if len(h.Observations) != 16 {
		t.Errorf("degenerate space observations = %d", len(h.Observations))
	}
	// The pool collapses to (nearly) one point, so the KDEs see zero spans;
	// no panics allowed.
	for _, obs := range h.Observations {
		if obs.Config.BatchSize != 32 {
			t.Errorf("batch size escaped the degenerate space: %d", obs.Config.BatchSize)
		}
	}
}

func TestRecommendWithWorseningObservations(t *testing.T) {
	// Monotonically worsening observed errors: recommendation must be the
	// first (best) one at the top fidelity.
	h := &History{}
	for i := 0; i < 5; i++ {
		h.Add(Observation{Rounds: 405, Observed: 0.1 * float64(i+1), True: 0.1 * float64(i+1), CumRounds: (i + 1) * 405})
	}
	rec, _ := h.Recommend()
	if rec.Observed != 0.1 {
		t.Errorf("recommendation = %+v", rec)
	}
	// And the true-error curve is non-increasing.
	curve := h.TrueErrorCurve([]int{405, 810, 1215, 1620, 2025})
	for i := 1; i < len(curve); i++ {
		if curve[i] > curve[i-1] {
			t.Errorf("incumbent curve increased: %v", curve)
		}
	}
}
