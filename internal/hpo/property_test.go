package hpo

import (
	"math"
	"testing"
	"testing/quick"

	"noisyeval/internal/rng"
)

// Property: RecommendAt is monotone in budget — growing the budget never
// yields a recommendation with a worse (higher) observed error at the same
// or lower fidelity.
func TestRecommendMonotoneProperty(t *testing.T) {
	g := rng.New(300)
	f := func(seed uint8) bool {
		n := int(seed%20) + 1
		h := &History{}
		cum := 0
		fidelities := []int{5, 15, 45, 135, 405}
		for i := 0; i < n; i++ {
			cum += 5 + g.IntN(400)
			h.Add(Observation{
				Rounds:    fidelities[g.IntN(len(fidelities))],
				Observed:  g.Float64(),
				True:      g.Float64(),
				CumRounds: cum,
			})
		}
		prevRounds, prevObserved := -1, math.Inf(1)
		for b := 0; b <= cum; b += 50 {
			rec, ok := h.RecommendAt(b)
			if !ok {
				continue
			}
			if rec.Rounds < prevRounds {
				return false // fidelity can only grow with budget
			}
			if rec.Rounds == prevRounds && rec.Observed > prevObserved+1e-12 {
				return false // at equal fidelity, observed error can only improve
			}
			prevRounds, prevObserved = rec.Rounds, rec.Observed
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: every rung ladder starts at r0 (clamped to >= 1), ends exactly
// at maxR, and grows by factor eta between interior rungs.
func TestRungLadderStructureProperty(t *testing.T) {
	f := func(rawR0, rawMax, rawEta uint8) bool {
		eta := int(rawEta%3) + 2
		maxR := int(rawMax)%400 + 1
		r0 := int(rawR0)%maxR + 1
		ladder := rungLadder(r0, maxR, eta)
		if len(ladder) == 0 || ladder[len(ladder)-1] != maxR {
			return false
		}
		for i := 0; i < len(ladder)-1; i++ {
			if ladder[i] >= ladder[i+1] {
				return false
			}
			if i+2 < len(ladder) && ladder[i+1] != ladder[i]*eta {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: RungRounds output is sorted, deduplicated, within [1, maxR],
// and always contains maxR.
func TestRungRoundsProperty(t *testing.T) {
	f := func(rawMax, rawEta, rawLevels uint8) bool {
		maxR := int(rawMax)%1000 + 1
		eta := int(rawEta%4) + 2
		levels := int(rawLevels%6) + 1
		rs := RungRounds(maxR, eta, levels)
		if len(rs) == 0 || rs[len(rs)-1] != maxR {
			return false
		}
		seen := map[int]bool{}
		prev := 0
		for _, r := range rs {
			if r < 1 || r > maxR || r <= prev || seen[r] {
				return false
			}
			seen[r] = true
			prev = r
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: the Parzen density is strictly positive inside the space for
// any observation set, so TPE's log-ratio score never degenerates.
func TestParzenPositiveDensityProperty(t *testing.T) {
	g := rng.New(301)
	space := DefaultSpace()
	f := func(seed uint8) bool {
		n := int(seed%10) + 1
		m := newParzenModel(TPE{}.normalize(), newTestOracle(0), space)
		obs := make([]parzenObs, n)
		for i := range obs {
			_, row := m.sample(g.Splitf("cfgs-%d/sample-%d", seed, i))
			obs[i] = parzenObs{row: row, err: float64(i)}
		}
		m.fit(obs)
		probe := m.features(space.Sample(g.Splitf("probe-%d", seed)))
		for _, ld := range []float64{m.good.logDensity(&probe), m.bad.logDensity(&probe)} {
			if math.IsNaN(ld) || math.IsInf(ld, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Hyperband's bracket plan always allocates non-increasing config
// counts and non-decreasing r0 across brackets, with the last bracket at
// full fidelity.
func TestHyperbandPlanStructureProperty(t *testing.T) {
	f := func(rawMax, rawBrackets uint8) bool {
		maxR := int(rawMax)%800 + 5
		s := DefaultSettings()
		s.Brackets = int(rawBrackets%6) + 1
		plans := hyperbandPlan(maxR, s)
		if len(plans) != s.Brackets {
			return false
		}
		for i := 0; i < len(plans)-1; i++ {
			if plans[i].n < plans[i+1].n || plans[i].r0 > plans[i+1].r0 {
				return false
			}
		}
		return plans[len(plans)-1].r0 == maxR
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
