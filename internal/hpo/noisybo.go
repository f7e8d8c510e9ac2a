package hpo

import (
	"math"

	"noisyeval/internal/dp"
	"noisyeval/internal/fl"
	"noisyeval/internal/rng"
)

// NoisyBO is a noise-aware Bayesian optimization baseline for the federated
// setting — the direction the paper's §6 proposes ("Noisy BO": knowledge
// gradient and noisy expected improvement, whose surrogate must tolerate the
// high noise levels of federated evaluation, but whose acquisition cost must
// stay small enough for a server-side loop).
//
// This implementation keeps a conjugate Normal posterior over each
// candidate's true error from repeated noisy evaluations and allocates
// evaluation rounds by Thompson sampling: at each step it samples a
// plausible error for every trained candidate from its posterior and
// re-evaluates the apparent best. Posterior averaging makes the final
// selection robust to evaluation noise at the cost of extra evaluation
// rounds — the trade the paper identifies. Training rounds are charged once
// per candidate (checkpoint reuse), matching the paper's accounting, while
// the number of evaluation calls is capped at EvalBudget.
type NoisyBO struct {
	// EvalBudget caps total evaluation calls (default 3×K).
	EvalBudget int
	// ObsNoise is the assumed evaluation-noise standard deviation of the
	// likelihood (default 0.1; the posterior contracts as 1/√n regardless).
	ObsNoise float64
	// PriorMean and PriorStd parameterize the error prior (defaults 0.7,
	// 0.3 — errors live in [0, 1] and most configs are bad).
	PriorMean, PriorStd float64
}

// Name implements Method.
func (NoisyBO) Name() string { return "NoisyBO" }

// Run implements Method.
func (m NoisyBO) Run(o Oracle, space Space, s Settings, g *rng.RNG) *History {
	s = s.Normalize()
	m = m.normalize(s)
	h := &History{MethodName: m.Name()}
	maxR := perConfigRounds(o, s)

	// Candidate set: as many configs as the training budget affords.
	nCandidates := s.Budget.K
	if nCandidates > s.Budget.TotalRounds/maxR {
		nCandidates = s.Budget.TotalRounds / maxR
	}
	if nCandidates < 1 {
		return h
	}
	cands := make([]fl.HParams, nCandidates)
	gSub := rng.New(0)
	for i := range cands {
		g.SplitIntInto(gSub, "cand-", i)
		cands[i] = sampleConfig(o, gSub)
	}
	h.Grow(m.EvalBudget)

	// Posterior state per candidate.
	sum := make([]float64, nCandidates)
	count := make([]int, nCandidates)
	dpp := dp.Params{Epsilon: s.Epsilon, TotalEvals: m.EvalBudget}

	// All candidates train to full fidelity once (cost charged here);
	// evaluations then sharpen the posterior.
	cum := 0
	post := func(i int) (mean, std float64) {
		// Conjugate Normal update with known observation noise.
		tau0 := 1 / (m.PriorStd * m.PriorStd)
		tauL := float64(count[i]) / (m.ObsNoise * m.ObsNoise)
		mean = (m.PriorMean*tau0 + sum[i]/(m.ObsNoise*m.ObsNoise)) / (tau0 + tauL)
		std = math.Sqrt(1 / (tau0 + tauL))
		return mean, std
	}
	observe := func(i int, evalID string, dpPrefix string, dpN int) {
		obs := o.Evaluate(cands[i], maxR, evalID)
		if dpp.Private() {
			obs = dpp.Release(obs, o.SampleSize(), g.Splitf(dpPrefix, dpN))
		}
		sum[i] += obs
		count[i]++
		mean, _ := post(i)
		h.Add(Observation{
			Config: cands[i], Rounds: maxR,
			// Observed carries the posterior mean so that RecommendAt picks
			// the averaged (noise-robust) winner.
			Observed:  mean,
			True:      o.TrueError(cands[i], maxR),
			CumRounds: cum,
		})
	}

	evals := 0
	for i := range cands {
		if cum+maxR > s.Budget.TotalRounds || evals >= m.EvalBudget {
			break
		}
		cum += maxR
		observe(i, nboInitIDs.ID(i), "dp-init-%d", i)
		evals++
	}

	// Thompson-sampled re-evaluation of the apparent best.
	for ; evals < m.EvalBudget; evals++ {
		best, bestDraw := -1, math.Inf(1)
		for i := range cands {
			if count[i] == 0 {
				continue
			}
			mean, std := post(i)
			g.SplitInt2Into(gSub, "ts-", evals, "-", i)
			draw := gSub.Normal(mean, std)
			if draw < bestDraw {
				best, bestDraw = i, draw
			}
		}
		if best < 0 {
			break
		}
		observe(best, nboTSIDs.ID(evals), "dp-ts-%d", evals)
	}
	return h
}

func (m NoisyBO) normalize(s Settings) NoisyBO {
	if m.EvalBudget < 1 {
		m.EvalBudget = 3 * s.Budget.K
	}
	if m.ObsNoise <= 0 {
		m.ObsNoise = 0.1
	}
	if m.PriorStd <= 0 {
		m.PriorStd = 0.3
	}
	if m.PriorMean == 0 {
		m.PriorMean = 0.7
	}
	return m
}
