package hpo

import (
	"strconv"

	"noisyeval/internal/dp"
	"noisyeval/internal/fl"
	"noisyeval/internal/rng"
)

// ResampledRS is random search with re-evaluation averaging, the "simple
// trick" noise mitigation the paper discusses in §5 (Hertel et al., 2020):
// every configuration is evaluated Reps times on independent client cohorts
// and selected by the mean observed error. Averaging shrinks subsampling
// variance by 1/√Reps at the cost of Reps× more evaluation rounds — and
// under DP the extra releases proportionally inflate the per-release noise,
// which is why resampling "varies in effectiveness" (§5).
type ResampledRS struct {
	// Reps is the number of independent evaluations per configuration
	// (default 3).
	Reps int
}

// Name implements Method.
func (ResampledRS) Name() string { return "RS+reeval" }

// Run implements Method.
func (m ResampledRS) Run(o Oracle, space Space, s Settings, g *rng.RNG) *History {
	s = s.Normalize()
	reps := m.Reps
	if reps < 1 {
		reps = 3
	}
	h := &History{MethodName: m.Name()}
	maxR := perConfigRounds(o, s)
	k := s.Budget.K
	// DP: every one of the K*reps releases consumes budget.
	dpp := dp.Params{Epsilon: s.Epsilon, TotalEvals: k * reps}
	h.Grow(k)
	gSub := rng.New(0)
	// All K·reps evaluations are independent of one another, so the full
	// resampling grid is one batch (see RandomSearch.Run for the
	// bit-identity argument); DP releases stay in (i, rep) order below.
	cfgs := make([]fl.HParams, 0, k)
	evalCfgs := make([]fl.HParams, 0, k*reps)
	ids := make([]string, 0, k*reps)
	cum := 0
	for i := 0; i < k; i++ {
		if cum+maxR > s.Budget.TotalRounds {
			break
		}
		g.SplitIntInto(gSub, "cfg-", i)
		cfg := sampleConfig(o, gSub)
		cfgs = append(cfgs, cfg)
		iStr := strconv.Itoa(i)
		for rep := 0; rep < reps; rep++ {
			evalCfgs = append(evalCfgs, cfg)
			ids = append(ids, "reeval-"+iStr+"-"+strconv.Itoa(rep))
		}
		cum += maxR
	}
	batch := EvalBatch{Configs: evalCfgs, EvalIDs: ids, SameRounds: maxR, Out: make([]float64, len(evalCfgs))}
	EvaluateAll(o, &batch)
	cum = 0
	for i, cfg := range cfgs {
		cum += maxR
		sum := 0.0
		for rep := 0; rep < reps; rep++ {
			obs := batch.Out[i*reps+rep]
			if dpp.Private() {
				obs = dpp.Release(obs, o.SampleSize(), g.Splitf("dp-%d-%d", i, rep))
			}
			sum += obs
		}
		h.Add(Observation{
			Config:    cfg,
			Rounds:    maxR,
			Observed:  sum / float64(reps),
			True:      o.TrueError(cfg, maxR),
			CumRounds: cum,
		})
	}
	return h
}
